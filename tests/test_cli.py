"""CLI behavior: commands, exit codes, determinism."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

from hhbounds.cli import main
from hhbounds.corpus import spec_from_config
from hhbounds.expr import MAX_NESTING, evaluate, evaluate_dual
from hhbounds.funcspec import SpecValidationError, validate


def write_config(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SQ_Q1 = {"f": "x^2", "a": 0, "b": 1, "phi": "identity", "c": 0, "q": 1}
PINNED_CORPUS = Path(__file__).parent / "data" / "corpus.csv"
PINNED_CORPUS_JSON = Path(__file__).parent / "data" / "corpus.json"
SRC = Path(__file__).parent.parent / "src"


def run_cli(*args, timeout=60):
    """``python -m hhbounds.cli`` in a new process, for its raw output bytes."""
    return subprocess.run(
        [sys.executable, "-m", "hhbounds.cli", *args],
        capture_output=True, timeout=timeout, env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def is_json_dumps_indent_2(out):
    return out == json.dumps(json.loads(out), indent=2) + "\n"


class TestCheck:
    def test_clean_spec_exits_zero(self, tmp_path, capsys):
        code = main(["check", write_config(tmp_path, SQ_Q1)])
        out = capsys.readouterr().out
        assert code == 0
        assert "power_mean,HOLDS,0.25" in out

    def test_failed_certificate_exits_one(self, tmp_path, capsys):
        # x^2 at q = 2 admits c_f <= 1 and c_deriv <= 4; each failed
        # certificate turns only its own rows into ERROR
        sandwich = {"sandwich_lower", "sandwich_upper"}
        for moduli, target in (({"c_deriv": 5}, "|f'|^q"), ({"c_f": 5}, "f")):
            cfg = dict({"f": "x^2", "a": 0, "b": 1, "q": 2}, **moduli)
            code = main(["check", write_config(tmp_path, cfg)])
            rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
            assert code == 1
            for row in rows:
                gated = (row["theorem_id"] in sandwich) == (target == "f")
                assert (row["status"] == "ERROR") == gated, row
            assert any(row["notes"].startswith(f"cert-failed: {target} ") for row in rows)

    def test_feasible_modulus_passes(self, tmp_path):
        cfg = {"f": "x^2", "a": 0, "b": 1, "q": 2, "c_deriv": 1.5}
        assert main(["check", write_config(tmp_path, cfg)]) == 0

    def test_missing_config_exits_two(self, capsys):
        assert main(["check", "no-such-file.json"]) == 2
        assert "config not found" in capsys.readouterr().err

    def test_unknown_key_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(SQ_Q1, typo_key=1))
        assert main(["check", path]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_invalid_phi_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(SQ_Q1, phi="1 - x"))
        assert main(["check", path]) == 2

    @pytest.mark.parametrize("command", ["check", "bounds"])
    @pytest.mark.parametrize("key, value", [
        ("c", math.nan), ("c_f", math.inf), ("c_deriv", math.inf), ("q", math.nan),
        ("quad_tol", math.inf),
    ])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, command, key, value):
        # json writes and reads NaN and Infinity, which JSON itself does not have
        path = write_config(tmp_path, dict(SQ_Q1, **{key: value}))
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    @pytest.mark.parametrize("command", ["check", "bounds", "modulus", "lemma"])
    @pytest.mark.parametrize("a, b", [(0, math.inf), (-math.inf, 1), (math.nan, 1)])
    def test_non_finite_endpoint_exits_two(self, tmp_path, capsys, command, a, b):
        path = write_config(tmp_path, dict(SQ_Q1, a=a, b=b))
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err and "a < b" not in captured.err

    def test_bad_expression_exits_two(self, tmp_path):
        path = write_config(tmp_path, dict(SQ_Q1, f="exp(x"))
        assert main(["check", path]) == 2

    @pytest.mark.parametrize("level", ["(", "exp("], ids=["parentheses", "exp"])
    def test_over_nested_expression_exits_two(self, tmp_path, capsys, level):
        # the first level past MAX_NESTING is a syntax error at the token
        # that opens it, whatever the caller's stack
        depth = MAX_NESTING + 1
        f = level * depth + "x" + ")" * depth
        assert main(["check", write_config(tmp_path, dict(SQ_Q1, f=f))]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        match = re.fullmatch(
            r"error: invalid config .*: expression nested too deeply \(offset (\d+)\)\n",
            captured.err,
        )
        assert int(match[1]) == MAX_NESTING * len(level) + 1

    @pytest.mark.parametrize(
        "text", [b'{"f": "x^2", "a": 0, "b": 1, "id": "\xff"}', b"[" * 100_000],
        ids=["not-utf-8", "nested-100000"],
    )
    def test_unreadable_config_exits_two(self, tmp_path, capsys, text):
        path = tmp_path / "spec.json"
        path.write_bytes(text)
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: cannot read config .*\n", captured.err)

    def test_config_that_is_not_an_object_exits_two(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text("[1, 2]")
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: config must be a JSON object\n"

    def test_2000_term_sum_exits_zero(self, tmp_path, capsys):
        # no expression walker recurses, so a long sum has no term limit
        f = " + ".join(["x^2"] * 2000)
        assert main(["check", write_config(tmp_path, dict(SQ_Q1, f=f))]) == 0
        # a header and the nine bound rows
        assert len(capsys.readouterr().out.splitlines()) == 10

    def test_failed_certificates_write_json_dumps_bytes(self, tmp_path, capsys):
        # exp(x) fails both certificates at c = 3, so the report holds witness
        # lists and cert-failed ERROR rows, which the corpus never writes
        path = write_config(tmp_path, {"id": "exp-c3", "f": "exp(x)", "a": 0, "b": 1, "c": 3})
        assert main(["check", "--format", "json", path]) == 1
        out = capsys.readouterr().out
        assert [cert["passed"] for cert in json.loads(out)["certificates"]] == [False, False]
        assert is_json_dumps_indent_2(out)

    def test_domain_error_in_certification_exits_one(self, tmp_path, capsys):
        # the config is valid; sqrt's derivative at 0 is a numerical failure.
        # The 1-D sample misses x = 0.3, so the spec stops in lemma_rhs's
        # quadrature instead; either way it exits 1 with one error line
        cfg = {"f": "sqrt(abs(x-0.3))", "a": 0, "b": 1, "phi": "identity", "q": 1, "c": 0}
        assert main(["check", write_config(tmp_path, cfg)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_json_format(self, tmp_path, capsys):
        code = main(["check", write_config(tmp_path, SQ_Q1), "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec_id"] == "spec"
        assert len(payload["certificates"]) == 2

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(["check", write_config(tmp_path, SQ_Q1), "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("spec_id,")

    def test_config_modulus_applies_to_both_targets(self):
        spec = spec_from_config(dict(SQ_Q1, c=1.5))
        assert spec.modulus_f == 1.5 and spec.modulus_deriv == 1.5


class TestConfigSchema:
    def test_misspelled_key_is_rejected(self):
        with pytest.raises(SpecValidationError) as exc:
            spec_from_config({"f": "x", "a": 0, "b": 1, "cderiv": 2})
        assert exc.value.code == "config-keys"
        assert "unknown config keys: ['cderiv']" in str(exc.value)

    def test_missing_key_is_rejected(self):
        with pytest.raises(SpecValidationError) as exc:
            spec_from_config({"f": "x", "a": 0})
        assert exc.value.code == "config-keys"
        assert "missing config keys: ['b']" in str(exc.value)

    @pytest.mark.parametrize("grid", [5, {"n_x": 5, "n_z": 5}])
    def test_bad_grid_is_rejected(self, grid):
        with pytest.raises(SpecValidationError) as exc:
            spec_from_config(dict(SQ_Q1, grid=grid))
        assert exc.value.code == "config-keys"


    # (config edit, what the error says of the key)
    WRONG_TYPES = [
        ({"q": None}, "'q' must be a number"),
        ({"a": [0]}, "'a' must be a number"),
        ({"grid": {"n_x": None}}, "'grid.n_x' must be an integer"),
        # JSON's Infinity is a float that int() cannot convert
        ({"grid": {"n_t": float("inf")}}, "'grid.n_t' must be an integer"),
        # int() would truncate these to 41, and bool is a subclass of int
        ({"grid": {"n_x": 41.9}}, "'grid.n_x' must be an integer"),
        ({"a": True}, "'a' must be a number"),
        ({"id": None}, "'id' must be a string"),
        # str() would make these the constant map 5 and the identifier 'None'
        ({"phi": 5}, "'phi' must be a string"),
        ({"phi": None}, "'phi' must be a string"),
        ({"f": 5}, "'f' must be a string"),
        ({"f": None}, "'f' must be a string"),
        # float() and int() would read these strings as 0, 2, 1.0 and 41
        ({"a": "0"}, "'a' must be a number"),
        ({"q": "2"}, "'q' must be a number"),
        ({"c_f": " 1e0 "}, "'c_f' must be a number"),
        ({"grid": {"n_x": "41"}}, "'grid.n_x' must be an integer"),
        # a JSON integer past the largest double: float() overflows
        ({"a": 10**400}, "'a' must be a number"),
    ]

    @pytest.mark.parametrize("edit, key", WRONG_TYPES)
    def test_wrong_value_type_is_rejected(self, edit, key):
        with pytest.raises(SpecValidationError) as exc:
            spec_from_config(dict(SQ_Q1, **edit))
        assert exc.value.code == "config-type"
        assert f"config key {key}, got " in str(exc.value)

    @pytest.mark.parametrize("edit, key", WRONG_TYPES)
    def test_wrong_value_type_exits_two(self, tmp_path, capsys, edit, key):
        assert main(["check", write_config(tmp_path, dict(SQ_Q1, **edit))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config ") and key in err

@pytest.mark.parametrize("command", ["check", "bounds", "modulus", "lemma"])
def test_overflow_prints_only_the_error_line(tmp_path, capsys, command):
    # exp(1000*x) overflows and inf - inf is NaN: numpy would warn, and a
    # warning must neither reach stderr nor stop the command
    path = write_config(tmp_path, {"f": "exp(1000*x) - exp(1000*x)", "a": 0, "b": 1})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["check", "bounds"])
@pytest.mark.parametrize("cfg, statuses", [
    # |f'(1)|^2000 = 2^2000 overflows in every derivative bound
    ({"f": "x^2", "a": 0, "b": 1, "q": 2000}, ["HOLDS"] * 2 + ["ERROR"] * 7),
    # delta^2 = 1e310 overflows in the sandwich and power_mean brackets
    ({"f": "1", "a": 0, "b": 1e155},
     ["ERROR"] * 3 + ["INAPPLICABLE"] * 3 + ["ERROR"] + ["INAPPLICABLE"] * 2),
])
def test_an_overflowing_bound_is_an_error_row(tmp_path, capsys, command, cfg, statuses):
    # Python's float ** raises OverflowError where numpy returns inf
    assert main([command, write_config(tmp_path, cfg)]) == 1
    captured = capsys.readouterr()
    rows = list(csv.DictReader(io.StringIO(captured.out)))
    assert [row["status"] for row in rows] == statuses
    assert all(row["notes"].endswith(": float overflow")
               for row in rows if row["status"] == "ERROR")
    assert captured.err == ("" if command == "check"
                            else "note: certificates skipped, hypotheses unverified\n")


@pytest.mark.parametrize("command", ["check", "bounds", "modulus", "lemma"])
def test_a_nan_phi_exits_two(tmp_path, capsys, command):
    path = write_config(tmp_path, {"f": "x^2", "a": 0, "b": 1,
                                   "phi": "x + 0*exp(1000 - 4000*(x - 0.5)^2)"})
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: invalid config {path}: phi(0.231) = nan escapes [0.0, 1.0]\n"


def test_oversize_modulus_sample_exits_two_at_once(tmp_path):
    # the 1-D sample would hold 31*1398100 + 1 = 43,341,101 points; a
    # process, so that its whole stderr and its time are what is checked
    path = write_config(tmp_path, {"id": "thin", "f": "x^2", "a": 0, "b": 1,
                                   "grid": {"n_x": 32, "n_y": 3, "n_t": 1398101}})
    result = run_cli("modulus", path, timeout=20)
    err = result.stderr.decode()
    assert result.returncode == 2, err
    assert re.match(r"error: .*sample has 43341101 points", err)
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--diagnostics"],
        ["bounds", "--diagnostics"],
        ["modulus", "--format", "json"],
        pytest.param(["check", "--tol", "1e-9"], id="check-tol"),
        pytest.param(["bounds", "--tol", "1e-9"], id="bounds-tol"),
        pytest.param(["modulus", "--tol", "1e-9"], id="modulus-tol"),
        ["lemma", "--out", "lemma.txt"],
        pytest.param(["lemma", "--tol", "1e-9"], id="lemma-tol"),
        ["corpus", "--tol", "1e-9"],
    ],
    ids=lambda argv: argv[0],
)
def test_flag_the_command_does_not_use_exits_two(tmp_path, capsys, argv):
    if argv[0] != "corpus":
        argv = [argv[0], write_config(tmp_path, SQ_Q1)] + argv[1:]
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestBoundsCommand:
    def test_skips_certificates(self, tmp_path, capsys):
        code = main(["bounds", write_config(tmp_path, SQ_Q1), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["certificates"] == []
        assert "certificates skipped" in captured.err


class TestModulus:
    def test_target_f(self, tmp_path, capsys):
        assert main(["modulus", write_config(tmp_path, SQ_Q1), "--target", "f"]) == 0
        assert capsys.readouterr().out.strip() == "1.00000"

    def test_target_derivative_power(self, tmp_path, capsys):
        cfg = dict(SQ_Q1, q=2)
        code = main(["modulus", write_config(tmp_path, cfg), "--target", "fprime_q"])
        assert code == 0
        val = float(capsys.readouterr().out)
        assert val == pytest.approx(4.0, abs=1e-2)

    def test_linear_target_f(self, tmp_path, capsys):
        cfg = dict(SQ_Q1, f="2*x + 1")
        assert main(["modulus", write_config(tmp_path, cfg), "--target", "f"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "0.00000\n" and captured.err == ""

    def test_non_convex_target_is_negative_with_a_note(self, tmp_path, capsys):
        # |f'| = 2x + sin(x) is concave: min g''/2 is about -sin(1)/2
        cfg = dict(SQ_Q1, f="x^2 + 1 - cos(x)")
        code = main(["modulus", write_config(tmp_path, cfg), "--target", "fprime_q"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "-0.420524\n"
        assert captured.err == (
            "note: |f'|^q is not convex on phi([a, b]), so no modulus >= 0 is admissible\n"
        )

    def test_nan_estimate_exits_one_without_traceback(self, tmp_path, capsys):
        # exp(1000*x) overflows, and inf - inf is NaN in f and in f'
        path = write_config(tmp_path, {"f": "exp(1000*x) - exp(1000*x)", "a": 0, "b": 1})
        for target, name in (("f", "f"), ("fprime_q", "|f'|^q")):
            assert main(["modulus", path, "--target", target]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: modulus estimate of {name} is NaN")
            assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_unbounded_rounding_error_exits_one(self, tmp_path, capsys):
        # -x^2 in exact arithmetic, with every value finite; its running
        # error bound overflows, so the estimate is NaN rather than 0
        path = write_config(tmp_path, {"f": "((x + 1e300) - 1e300)/1e-100 - x^2", "a": 0, "b": 1})
        assert main(["modulus", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: modulus estimate of f is NaN: its sample of phi([a, b]) holds "
            "a NaN value or an unbounded rounding error\n"
        )


class TestNarrowRange:
    # [1, 1 + 64*2**-52] is a valid interval whose range holds too few
    # doubles for the default 1,281-point sample
    CFG = {"f": "x^2", "a": 1.0, "b": 1.0 + 64 * 2.0**-52}

    @pytest.mark.parametrize("argv", [["check"], ["modulus"], ["modulus", "--target", "fprime_q"]])
    def test_sampling_commands_exit_one(self, tmp_path, capsys, argv):
        assert main([argv[0], write_config(tmp_path, self.CFG), *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: phi([a, b]) holds too few doubles for 1281 points\n"

    def test_bounds_samples_nothing(self, tmp_path, capsys):
        assert main(["bounds", write_config(tmp_path, self.CFG)]) == 0
        captured = capsys.readouterr()
        statuses = [row.split(",")[2] for row in captured.out.splitlines()[1:]]
        assert statuses == ["HOLDS"] * 3 + ["INAPPLICABLE"] * 3 + ["HOLDS"] + ["INAPPLICABLE"] * 2
        assert captured.err == "note: certificates skipped, hypotheses unverified\n"


class TestRangeNearZero:
    # phi([0, 1e-310]) lies below 2**-1024, where the sample's power-of-two
    # unit underflows to 0; in a new process, so a traceback would show
    CFG = {"f": "x^2", "a": 0, "b": 1e-310}

    @pytest.mark.parametrize("command", ["check", "modulus"])
    def test_sampling_commands_exit_one_with_one_error_line(self, tmp_path, command):
        proc = run_cli(command, write_config(tmp_path, self.CFG))
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr == (b"error: phi([a, b]) = [0.0, 1e-310] lies below 2**-1024, "
                               b"too near 0\n")
        assert b"Traceback" not in proc.stderr


class TestLemma:
    def test_square(self, tmp_path, capsys):
        assert main(["lemma", write_config(tmp_path, SQ_Q1)]) == 0
        out = capsys.readouterr().out
        lines = dict(l.split("=") for l in out.strip().split("\n"))
        assert float(lines["lhs      "]) == pytest.approx(1 / 6, abs=1e-9)
        assert float(lines["residual "]) <= 1e-9

    def test_constant(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(SQ_Q1, f="3"))
        assert main(["lemma", path]) == 0
        assert "residual = 0" in capsys.readouterr().out

    def test_overflowing_negative_power_exits_one(self, tmp_path, capsys):
        # 0.1^400 underflows to 0, so f = (x+0.1)^-400 overflows near a = 0
        path = write_config(tmp_path, {"f": "(x+0.1)^-400", "a": 0, "b": 1})
        assert main(["lemma", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: negative power overflows in ")
        assert err.count("\n") == 1 and "Traceback" not in err


    def test_scaled_quadratic_exits_zero(self, tmp_path, capsys):
        # 1e-10 absolute is below the roundoff of this 1.05e7 integral
        path = write_config(tmp_path, {"id": "scaled-quadratic", "f": "1e8*(x^2)",
                                       "a": 0.3, "b": 0.7})
        assert main(["lemma", path]) == 0
        assert capsys.readouterr().err == ""

    def test_nan_integrand_exits_one_at_the_first_level(self, tmp_path, capsys):
        # exp(1000*x) overflows, and inf - inf is NaN; the first 15 Gauss-Kronrod
        # nodes of the gap's integral already sample it
        path = write_config(tmp_path, {"f": "exp(1000*x) - exp(1000*x)", "a": 0, "b": 1})
        assert main(["lemma", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: integrand is nan at 0.9957276855604063 on [0.0, 1.0] "
            "(depth 0, 15 evaluations)\n"
        )

    def test_tiny_divisor_runs_without_traceback(self, tmp_path, capsys):
        # the derivative of x/1e-170 is 1e170; (1e-170)^2 underflows to 0.
        # The gap is 5e169 - 2.5e169, and both sides agree to the last bit
        path = write_config(tmp_path, {"f": "abs(x/1e-170 - 5e169)", "a": 0, "b": 1})
        assert main(["lemma", path]) == 0
        captured = capsys.readouterr()
        lines = dict(l.split("=") for l in captured.out.strip().split("\n"))
        assert float(lines["lhs      "]) == pytest.approx(2.5e169, rel=1e-15)
        assert float(lines["residual "]) == 0.0
        assert captured.err == ""

    def test_false_identity_violation_exits_one_without_traceback(self, tmp_path, capsys):
        # 1e-10 absolute is below the roundoff of the 1.07e13 integral of
        # exp over [0, 30], so the two sides differ by more than 100 * quad_tol
        path = write_config(tmp_path, {"f": "exp(x)", "a": 0, "b": 30})
        assert main(["lemma", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: gap identity residual ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestCorpus:
    def test_all_rows_hold(self, tmp_path):
        out = tmp_path / "corpus.csv"
        assert main(["corpus", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) >= 12 * 4
        statuses = {r[2] for r in rows}
        assert "VIOLATED" not in statuses and "ERROR" not in statuses
        spec_ids = {r[0] for r in rows}
        assert len(spec_ids) >= 12
        # at least 4 holding rows per spec
        for sid in spec_ids:
            holds = [r for r in rows if r[0] == sid and r[2] == "HOLDS"]
            assert len(holds) >= 4, sid

    def test_row_outcomes_are_pinned(self, tmp_path):
        out = tmp_path / "corpus.csv"
        assert main(["corpus", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        outcomes = Counter((r["theorem_id"], r["status"], r["notes"]) for r in rows)
        q1 = "p undefined at q=1"
        assert outcomes == Counter({
            ("sandwich_lower", "HOLDS", ""): 17,
            ("sandwich_upper", "HOLDS", ""): 17,
            ("power_mean", "HOLDS", ""): 17,
            ("power_mean_c0", "HOLDS", ""): 17,
            ("split_holder", "HOLDS", ""): 10,
            ("split_holder", "INAPPLICABLE", q1): 7,
            ("split_holder_relaxed", "HOLDS", ""): 10,
            ("split_holder_relaxed", "INAPPLICABLE", q1): 7,
            ("holder", "HOLDS", ""): 10,
            ("holder", "INAPPLICABLE", q1): 7,
            ("split_holder_c0", "HOLDS", ""): 10,
            ("split_holder_c0", "INAPPLICABLE", q1): 7,
            ("holder_c0", "HOLDS", ""): 10,
            ("holder_c0", "INAPPLICABLE", q1): 7,
        })
        assert len(rows) == 153

    def test_report_matches_the_pinned_csv(self, tmp_path):
        # tests/data/corpus.csv is a checked-in `hhbounds corpus` report;
        # numbers may move by 1e-12 relative (other CPUs, other libm), the
        # rest must not move at all. An intended change rewrites the file
        # with `hhbounds corpus --out tests/data/corpus.csv` and is stated
        # in CHANGES.md.
        out = tmp_path / "corpus.csv"
        assert main(["corpus", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            got = list(csv.DictReader(fh))
        with open(PINNED_CORPUS, newline="") as fh:
            want = list(csv.DictReader(fh))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            for key in ("spec_id", "theorem_id", "status", "notes"):
                assert g[key] == w[key], (w["spec_id"], w["theorem_id"], key)
            for key in ("bound", "gap", "margin", "tightness"):
                if w[key] == "":
                    assert g[key] == "", (w["spec_id"], w["theorem_id"], key)
                else:
                    value = float(w[key])
                    assert abs(float(g[key]) - value) <= 1e-12 * (1.0 + abs(value)), (
                        w["spec_id"], w["theorem_id"], key, g[key], w[key]
                    )

    def test_report_matches_the_pinned_json(self, tmp_path):
        # tests/data/corpus.json is a checked-in `hhbounds corpus --format
        # json` report. It carries what the CSV does not: mean,
        # lemma_residual and both certificates per spec. Same rule as the
        # CSV: numbers within 1e-12 relative, everything else exactly.
        out = tmp_path / "corpus.json"
        assert main(["corpus", "--format", "json", "--out", str(out)]) == 0
        got = json.loads(out.read_text())
        want = json.loads(PINNED_CORPUS_JSON.read_text())

        def compare(g, w, path):
            if isinstance(w, dict):
                assert isinstance(g, dict) and list(g) == list(w), path
                for key in w:
                    compare(g[key], w[key], path + (key,))
            elif isinstance(w, list):
                assert isinstance(g, list) and len(g) == len(w), path
                for k, (gk, wk) in enumerate(zip(g, w)):
                    compare(gk, wk, path + (k,))
            elif isinstance(w, float):
                assert type(g) is float, (path, g)
                assert abs(g - w) <= 1e-12 * (1.0 + abs(w)), (path, g, w)
            else:  # strings, booleans and null
                assert type(g) is type(w) and g == w, (path, g, w)

        compare(got, want, ())

    @pytest.mark.parametrize("args, pinned", [
        ((), PINNED_CORPUS), (("--format", "json"), PINNED_CORPUS_JSON),
    ], ids=["csv", "json"])
    def test_stdout_is_the_pinned_bytes(self, args, pinned):
        # the tests above allow numbers to move by 1e-12; `hhbounds corpus`
        # on this checkout must write the pinned files byte for byte
        result = run_cli("corpus", *args)
        assert result.returncode == 0, result.stderr.decode()
        assert result.stdout == pinned.read_bytes()
        if pinned is PINNED_CORPUS_JSON:
            assert is_json_dumps_indent_2(result.stdout.decode())

    def test_unwritable_out_exits_two(self, capsys):
        assert main(["corpus", "--out", "/nonexistent-dir/x.csv"]) == 2

    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["corpus", "--format", "json", "--out", str(a)]) == 0
        assert main(["corpus", "--format", "json", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestFineSymmetricGrid:
    """exp(x) on [0, 1] at q = 2 on a square 101x101x53 grid.

    A square grid scans the t columns up to 1/2 only, since the others
    repeat them, whatever n_t; n_t = 53 is not 2^k + 1.
    """

    CONFIG = {"f": "exp(x)", "a": 0, "b": 1, "q": 2,
              "grid": {"n_x": 101, "n_y": 101, "n_t": 53}}

    def test_passes_below_both_estimates(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(self.CONFIG, id="fine-101", c_f=0.4, c_deriv=1.5))
        assert main(["check", path]) == 0
        capsys.readouterr()
        estimates = []
        for target in ("f", "fprime_q"):
            assert main(["modulus", path, "--target", target]) == 0
            estimates.append(float(capsys.readouterr().out))
        # min g''/2 is 1/2 for f and 2 for |f'|^2
        c_f, c_d = estimates
        assert 0.5 <= c_f < 0.51 and 2.0 <= c_d < 2.05, estimates

    def test_failed_witnesses_are_scanned_and_re_evaluate(self, tmp_path, capsys):
        # past both estimates both certificates fail; each witness is a scanned
        # element, so its t is at most 1/2, and it re-evaluates to its own lhs
        cfg = dict(self.CONFIG, id="fine-101-fail", c_f=0.8, c_deriv=3.0)
        assert main(["check", "--format", "json", write_config(tmp_path, cfg)]) == 1
        certificates = json.loads(capsys.readouterr().out)["certificates"]
        assert [cert["passed"] for cert in certificates] == [False, False]
        spec = validate(spec_from_config(cfg))

        def close(value, expected, rel):
            return abs(value - expected) <= rel * max(abs(value), abs(expected), 1e-300)

        for cert in certificates:
            x, y, t, lhs, rhs = cert["witness"]
            assert t <= 0.5, cert
            mix = t * float(spec.phi(x)) + (1.0 - t) * float(spec.phi(y))
            if cert["target"] == "f":
                value = evaluate(spec.f, mix)
            else:
                value = abs(evaluate_dual(spec.f, mix).deriv) ** spec.q
            assert close(value, lhs, 1e-12), (cert, value)
            assert close(rhs - lhs, cert["worst_slack"], 1e-9), cert


class TestUsage:
    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2


def test_runtime_loads_no_test_only_package():
    # the runtime is numpy-only; scipy, sympy and mpmath serve the tests
    code = (
        "import sys, hhbounds, hhbounds.cli; "
        "print(sorted({name.split('.')[0] for name in sys.modules} & {'scipy', 'sympy', 'mpmath'}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
