"""Command-line surface: exit codes, output formats, determinism."""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weylgpd.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_builtin_gcm(self, capsys):
        code, out, _ = run(capsys, "validate", "a2")
        assert code == 0 and "valid" in out

    def test_invalid_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[[2, 0], [-1, 2]]")
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 1
        assert "M2" in out

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.json")
        assert code == 2

    def test_zero_denominator_table(self, capsys, tmp_path):
        path = tmp_path / "zero_den.json"
        path.write_text(json.dumps({"rank": 2, "roots": [["3/0", "1"], ["-3/0", "-1"]]}))
        code, out, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "zero denominator" in err
        assert "Traceback" not in out + err


class TestCovectorInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("restrict", "f4", "--root", "1.5,0,0,0"),
            ("restrict", "f4", "--root", "0,0,1,-1", "--root", "1,2"),
            ("localize", "a2", "--point", "1,2,3"),
            ("localize", "a2", "--point", "1,x"),
            ("localize", "f4", "--point", "1/0,0,0,0"),
        ],
    )
    def test_bad_covector_is_an_input_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("input error:") and err.count("\n") == 1
        assert "Traceback" not in out + err

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=st.text(max_size=24), command=st.sampled_from(["restrict", "localize"]))
    def test_arbitrary_text_keeps_the_exit_code_contract(self, capsys, text, command):
        option = "--root" if command == "restrict" else "--point"
        try:
            code = main([command, "a2", f"{option}={text}"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        assert "Traceback" not in captured.out + captured.err


class TestBudgetVariable:
    def test_malformed_budget_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("WEYLGPD_BUDGET", "abc")
        code, out, err = run(capsys, "check", "b3", "--property", "cryst")
        assert code == 2
        assert err.startswith("input error:") and "WEYLGPD_BUDGET" in err
        assert err.count("\n") == 1 and out == ""

    def test_budget_variable_sets_the_default(self, capsys, monkeypatch):
        monkeypatch.setenv("WEYLGPD_BUDGET", "3")
        code, _, err = run(capsys, "check", "b3", "--property", "cryst")
        assert code == 3 and "budget exceeded" in err


class TestCheck:
    def test_rescaled_fails_with_witness(self, capsys):
        code, out, _ = run(
            capsys, "--depth", "5", "check", "aff-a1-rescaled", "--property", "cryst"
        )
        assert code == 1
        assert "fail" in out and "1/2" in out

    def test_affine_passes(self, capsys):
        code, out, _ = run(capsys, "--depth", "5", "check", "aff-a1", "--property", "cryst")
        assert code == 0

    def test_additive_witness(self, capsys):
        code, out, _ = run(
            capsys, "--depth", "5", "check", "aff-a1", "--property", "additive"
        )
        assert code == 1

    def test_k_spherical(self, capsys):
        code, _, _ = run(capsys, "--depth", "5", "check", "aff-a1", "--property", "k-spherical", "--k", "1")
        assert code == 0
        code, _, _ = run(capsys, "--depth", "5", "check", "aff-a1", "--property", "k-spherical", "--k", "2")
        assert code == 1


class TestPipelines:
    def test_roundtrip_g2(self, capsys):
        code, out, _ = run(capsys, "--depth", "16", "roundtrip", "g2")
        assert code == 0 and "pass" in out

    def test_roots_json_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "--format", "json", "--depth", "4", "roots", "a2")
        code2, out2, _ = run(capsys, "--format", "json", "--depth", "4", "roots", "a2")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["complete"] is True

    def test_realize_table_output(self, capsys):
        code, out, _ = run(capsys, "--depth", "6", "realize", "aff-a1")
        assert code == 0
        assert out.count("B[") == 13

    def test_extract_graph(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "extract-graph", "b2")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["objects"]) == 8

    def test_localize(self, capsys):
        code, out, _ = run(capsys, "--depth", "5", "localize", "aff-a1", "--point", "1,0")
        assert code == 0
        assert "quotient rank 1" in out

    def test_restrict_two_roots(self, capsys):
        code, out, _ = run(
            capsys, "restrict", "f4", "--root", "0,0,1,-1", "--root", "1/2,-1/2,-1/2,-1/2"
        )
        assert code == 0
        assert "restricted rank: 2" in out

    def test_identify_rank2_non_crystallographic_table(self, capsys, tmp_path):
        path = tmp_path / "a2_doubled_line.json"
        path.write_text(json.dumps({"rank": 2, "roots": [[1, 0], [-1, 0], [0, 1], [0, -1], [2, 2], [-2, -2]]}))
        code, out, err = run(capsys, "identify-rank2", str(path))
        assert code == 1
        assert "check failed" in err
        assert "Traceback" not in out + err

    def test_identify_rank2_builtin(self, capsys):
        code, out, _ = run(capsys, "identify-rank2", "b2")
        assert code == 0 and "B2" in out


class TestF4Demo:
    def test_labels_line_up(self, capsys):
        code, out, _ = run(capsys, "f4-demo")
        assert code == 0
        assert "pi_12" in out and "G2" in out
        assert "pi_23" in out and "B2" in out
        assert "R(1,2,2,2,1,4)" in out

    def test_json_deterministic(self, capsys):
        _, out1, _ = run(capsys, "--format", "json", "f4-demo")
        _, out2, _ = run(capsys, "--format", "json", "f4-demo")
        assert out1 == out2
        payload = json.loads(out1)
        assert set(payload) == {"pi_12", "pi_13", "pi_14", "pi_23", "pi_24", "pi_34"}
