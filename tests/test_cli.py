"""CLI behavior: commands, exit codes, determinism."""

import csv
import json
from collections import Counter

import pytest

from hhbounds.cli import main
from hhbounds.corpus import spec_from_config
from hhbounds.funcspec import SpecValidationError


def write_config(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SQ_Q1 = {"f": "x^2", "a": 0, "b": 1, "phi": "identity", "c": 0, "q": 1}


class TestCheck:
    def test_clean_spec_exits_zero(self, tmp_path, capsys):
        code = main(["check", write_config(tmp_path, SQ_Q1)])
        out = capsys.readouterr().out
        assert code == 0
        assert "power_mean,HOLDS,0.25" in out

    def test_failed_certificate_exits_one(self, tmp_path, capsys):
        cfg = {"f": "x^2", "a": 0, "b": 1, "q": 2, "c_deriv": 5}
        code = main(["check", write_config(tmp_path, cfg)])
        out = capsys.readouterr().out
        assert code == 1
        assert "cert-failed" in out

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

    def test_bad_expression_exits_two(self, tmp_path):
        path = write_config(tmp_path, dict(SQ_Q1, f="exp(x"))
        assert main(["check", path]) == 2

    def test_domain_error_in_certification_exits_one(self, tmp_path, capsys):
        # the config is valid; certifying |f'| hits sqrt's derivative at 0
        cfg = {"f": "sqrt(abs(x-0.3))", "a": 0, "b": 1, "phi": "identity", "q": 1, "c": 0}
        assert main(["check", write_config(tmp_path, cfg)]) == 1
        assert "sqrt derivative at zero" in capsys.readouterr().err

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


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--diagnostics"],
        ["bounds", "--diagnostics"],
        ["modulus", "--format", "json"],
        ["lemma", "--out", "lemma.txt"],
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
        assert float(capsys.readouterr().out) == 0.0


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

    def test_unwritable_out_exits_two(self, capsys):
        assert main(["corpus", "--out", "/nonexistent-dir/x.csv"]) == 2

    def test_byte_identical_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["corpus", "--format", "json", "--out", str(a)]) == 0
        assert main(["corpus", "--format", "json", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestUsage:
    def test_no_command_exits_two(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
