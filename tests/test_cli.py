"""Command-line surface: exit codes, output formats, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import weylgpd
from weylgpd.builtins import builtin_table
from weylgpd.cli import main
from weylgpd.jsonio import graph_to_json, table_to_json
from weylgpd.subarr import rank2_graph_from_edge_sequence

from test_realization import A2_PATH_JSON


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

    def test_rational_variable_is_not_read(self):
        env = dict(os.environ, WEYLGPD_RATIONAL="bogus")
        src = str(Path(weylgpd.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "weylgpd.cli", "validate", "a2"], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0 and "gcm: valid" in proc.stdout and proc.stderr == ""

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

    @pytest.mark.parametrize(
        "argv", [("restrict", "f4", "--root", "-1,0,0,0"), ("localize", "a2", "--point", "-1,2")]
    )
    def test_value_starting_with_minus_is_read_as_a_separate_argument(self, capsys, argv):
        *head, option, value = argv
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == run(capsys, *head, f"{option}={value}")
        assert code == 0 and err == ""

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


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("no-such-command",),
            ("--depth", "deep", "roots", "a2"),
            ("check", "b3", "--property", "nonsense"),
            ("validate",),
            ("restrict", "f4", "--root"),
        ],
    )
    def test_usage_error_is_one_input_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("input error:") and err.count("\n") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0 and "usage: weylgpd" in capsys.readouterr().out


class TestBudgetVariable:
    def test_malformed_budget_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("WEYLGPD_BUDGET", "abc")
        code, out, err = run(capsys, "check", "b3", "--property", "cryst")
        assert code == 2
        assert err.startswith("input error:") and "WEYLGPD_BUDGET" in err
        assert err.count("\n") == 1 and out == ""

    def test_negative_budget_variable_is_an_input_error(self, capsys, monkeypatch):
        monkeypatch.setenv("WEYLGPD_BUDGET", "-5")
        code, out, err = run(capsys, "check", "b3", "--property", "cryst")
        assert code == 2 and out == ""
        assert err == "input error: WEYLGPD_BUDGET must be >= 0, not -5\n"

    def test_negative_budget_flag_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "--budget", "-3", "check", "b3", "--property", "cryst")
        assert code == 2 and out == ""
        assert err == "input error: --budget must be >= 0, not -3\n"

    def test_zero_budget_is_exhausted(self, capsys, monkeypatch):
        monkeypatch.setenv("WEYLGPD_BUDGET", "0")
        code, _, err = run(capsys, "check", "b3", "--property", "cryst")
        assert code == 3 and err.startswith("budget exceeded:")
        code, _, err = run(capsys, "--budget", "0", "check", "b3", "--property", "cryst")
        assert code == 3 and err.startswith("budget exceeded:")

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

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize(
        "argv, expected_code, fragment",
        [
            (("--depth", "5", "check", "aff-a1", "--property", "additive"), 1, "positive root (2, 1) (coords (1, 2))"),
            (("--depth", "5", "check", "aff-a1", "--property", "k-spherical", "--k", "2"), 1, "chamber ((0, 1), (1, 0))"),
            (("restrict", "f4", "--root", "1,1,1,1"), 2, "(1, 1, 1, 1) is not in the table"),
            (("restrict", "f4", "--root", "0,0,0,1", "--root", "0,0,0,1"), 2, "(0, 0, 0, 1) does not survive"),
            (("extract-graph", "aff-a1-rescaled"), 1, "at chamber ((0, 1), (1, 0)): crossing wall 0"),
            (("--depth", "2", "realize", "{}"), 1, "root (-1, -2) is not sign-coherent at 2: coords (-1, 1)"),
            (("--depth", "2", "roundtrip", "{}"), 1, "root (-1, -2) is not sign-coherent at 2: coords (-1, 1)"),
        ],
        ids=["additive", "k-spherical", "not-a-root", "not-surviving", "extraction", "realize", "roundtrip"],
    )
    def test_covectors_print_without_fraction_reprs(self, capsys, tmp_path, fmt, argv, expected_code, fragment):
        # "{}" is a graph whose realization meets a root that is not sign-coherent.
        graph = graph_to_json(rank2_graph_from_edge_sequence((1, 1, 1, 1, 1, 2)))
        argv = [_write(tmp_path, graph) if a == "{}" else a for a in argv]
        code, out, err = run(capsys, "--format", fmt, *argv)
        assert code == expected_code
        assert fragment in out + err
        assert "Fraction(" not in out + err


class TestPipelines:
    def test_roundtrip_g2(self, capsys):
        code, out, _ = run(capsys, "--depth", "16", "roundtrip", "g2")
        assert code == 0 and "pass" in out

    @pytest.mark.parametrize("command", ["realize", "roundtrip"])
    def test_graph_that_is_not_simply_connected_fails_the_check(self, capsys, tmp_path, command):
        path = tmp_path / "double_cover.json"
        path.write_text(json.dumps(graph_to_json(rank2_graph_from_edge_sequence((1,) * 12))))
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (1, "", "check failed: objects 3 and 9 realize the same chamber\n")

    def test_roots_json_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "--format", "json", "--depth", "4", "roots", "a2")
        code2, out2, _ = run(capsys, "--format", "json", "--depth", "4", "roots", "a2")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["complete"] is True

    def test_roots_of_a_truncated_graph_are_incomplete(self, capsys, tmp_path):
        path = tmp_path / "a2_path.json"
        path.write_text(json.dumps(A2_PATH_JSON))
        code, out, _ = run(capsys, "roots", str(path))
        assert code == 0
        assert out.splitlines()[0] == "complete: False"

    def test_roundtrip_of_a_path_whose_base_has_a_missing_edge_passes(self, capsys, tmp_path):
        path = tmp_path / "a2_path.json"
        path.write_text(json.dumps({**A2_PATH_JSON, "base": "0"}))
        code, out, err = run(capsys, "roundtrip", str(path))
        assert code == 0 and out.startswith("roundtrip: pass") and err == ""

    @pytest.mark.parametrize("depth,name", [("1", "a3"), ("3", "f4")])
    def test_roundtrip_of_a_shallow_truncation_passes(self, capsys, depth, name):
        code, out, err = run(capsys, "--depth", depth, "roundtrip", name)
        assert code == 0 and out.startswith("roundtrip: pass") and err == ""

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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("identify-rank2", "a3"), "fan signatures are defined for rank-2 tables"),
            (("identify-rank2", "aff-a1"), "fan signatures need a spherical table"),
            (("identify-rank2", "{}"), "rank-2 identification needs a spherical table"),
            (("check", "{}", "--property", "k-spherical"), "k-sphericity is undefined for truncated tables (no cone)"),
        ],
        ids=["rank-3", "affine", "truncated", "k-spherical-truncated"],
    )
    def test_unsupported_input_is_an_input_error(self, capsys, tmp_path, argv, message):
        path = _write(tmp_path, TRUNCATED_A2)
        code, out, err = run(capsys, *(path if a == "{}" else a for a in argv))
        assert code == 2
        assert err == f"input error: {message}\n"
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("validate", "{}"), "input is neither a matrix, a graph, nor a table"),
            (("restrict", "b3"), "at least one --root is required"),
            (
                ("restrict", "b3", "--root=1,0,0", "--root=0,1,0", "--root=0,0,1"),
                "at most two --root arguments are supported",
            ),
        ],
        ids=["validate-other-json", "restrict-no-root", "restrict-three-roots"],
    )
    def test_command_argument_errors_are_input_errors(self, capsys, tmp_path, argv, message):
        path = _write(tmp_path, {"rank": 2})
        code, out, err = run(capsys, *(path if a == "{}" else a for a in argv))
        assert (code, out, err) == (2, "", f"input error: {message}\n")


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


def cli_process(*argv) -> subprocess.Popen:
    """`python -m weylgpd.cli argv` with piped stdout and stderr."""
    env = dict(os.environ)
    src = str(Path(weylgpd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "weylgpd.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


class TestClosedStdout:
    """A reader that stops reading (`weylgpd roots f4 | head -1`) gets no
    traceback, and the command keeps its own exit code."""

    @pytest.mark.parametrize(
        "argv, first", [(("roots", "f4"), "complete: False"), (("extract-graph", "f4"), "objects: 1152")]
    )
    def test_reader_takes_one_line_of_a_long_output(self, argv, first):
        # Either output is larger than a pipe and the stdout buffer together,
        # so the command is still writing when the reader goes.
        proc = cli_process(*argv)
        assert proc.stdout.readline() == first + "\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 0
        assert err == ""

    def test_output_to_a_closed_stdout_is_dropped_in_process(self, monkeypatch, tmp_path):
        """The same path in this process: a stdout whose writes fail with
        EPIPE is pointed at os.devnull, and the command's exit code stands."""

        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return sink.fileno()

        with open(tmp_path / "stdout", "w") as sink:
            monkeypatch.setattr(sys, "stdout", Closed())
            assert main(["--depth", "5", "check", "aff-a1-rescaled", "--property", "cryst"]) == 1
            assert main(["roots", "a2"]) == 0

    @pytest.mark.parametrize("name, code", [("b3", 0), ("aff-a1-rescaled", 1)])
    def test_check_keeps_its_verdict_when_nothing_is_read(self, name, code):
        proc = cli_process("check", name, "--property", "cryst")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == code
        assert err == ""


class TestDepthAndK:
    @pytest.mark.parametrize("name", ["g2", "aff-a1"])
    def test_roundtrip_at_depth_zero_is_a_budget_error(self, capsys, name):
        code, out, err = run(capsys, "--depth", "0", "roundtrip", name)
        assert code == 3
        assert err.startswith("budget exceeded:") and err.count("\n") == 1
        assert "Traceback" not in out + err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--depth", "-1", "roundtrip", "a2"),
            ("--depth", "-1", "roots", "a2"),
            ("--depth", "-1", "check", "aff-a1", "--property", "cryst"),
            ("check", "b3", "--property", "k-spherical", "--k", "9"),
            ("check", "b3", "--property", "k-spherical", "--k", "-1"),
        ],
    )
    def test_out_of_range_numbers_are_input_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("input error:") and err.count("\n") == 1
        assert "Traceback" not in out + err


def _write(tmp_path, payload) -> str:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    return str(path)


A2_GCM = [[2, -1], [-1, 2]]
LINE = {"rank": 2, "roots": [["1", "0"], ["-1", "0"]]}
FLAT = {"rank": 3, "roots": [["1", "0", "0"], ["-1", "0", "0"], ["0", "1", "0"], ["0", "-1", "0"]]}
TRUNCATED_A2 = {
    "rank": 2,
    "roots": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"], ["1", "1"], ["-1", "-1"]],
    "cone": {"truncated": 3},
}


class TestJsonInputBoundary:
    @pytest.mark.parametrize(
        "payload,argv",
        [
            ({"rank": 0, "roots": []}, ("check", "{}", "--property", "cryst")),
            ({"rank": -1, "roots": []}, ("validate", "{}")),
            (
                {
                    "rank": 2,
                    "objects": [{"id": "0", "cartan": A2_GCM}, {"id": "1", "cartan": A2_GCM}],
                    "edges": [
                        {"i": 0, "from": "0", "to": "1"},
                        {"i": 0, "from": "1", "to": "0"},
                        {"i": 2, "from": "0", "to": "1"},
                    ],
                },
                ("realize", "{}"),
            ),
            (
                {"rank": 2, "objects": [{"id": "0", "cartan": A2_GCM}], "edges": [{"i": -1, "from": "0", "to": "0"}]},
                ("roundtrip", "{}"),
            ),
            ({"rank": 0, "objects": [{"id": "0", "cartan": []}], "edges": []}, ("realize", "{}")),
            ([], ("roundtrip", "{}")),
            ([1, 2], ("roots", "{}")),
            ([[2, "x"], [1, "y"]], ("validate", "{}")),
            ([[2.5]], ("validate", "{}")),
            ([[2.5]], ("roundtrip", "{}")),
            ([[2, 0.5], [0, 2]], ("validate", "{}")),
            ([[float("inf")]], ("roots", "{}")),
            ({"rank": 1, "objects": [{"id": "0", "cartan": [[2.5]]}], "edges": []}, ("validate", "{}")),
            ({"rank": float("inf"), "roots": []}, ("check", "{}", "--property", "cryst")),
            ([[2, -1], [0]], ("validate", "{}")),
            ({"rank": 2, "objects": [{"id": "0", "cartan": [[2, -1], [0]]}], "edges": []}, ("validate", "{}")),
            ({"rank": 2, "roots": [["0", "0"], ["1", "0"], ["-1", "0"]]}, ("validate", "{}")),
            ({"rank": 2, "roots": [["1"], ["-1"]]}, ("validate", "{}")),
            ({"rank": 1, "roots": [["1"], ["-1"]], "reduced": False}, ("validate", "{}")),
            ({"rank": 1, "roots": [["1"], ["-1"]], "cone": {"affine": ["0"]}}, ("validate", "{}")),
            ({"rank": 2.5, "roots": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]]}, ("validate", "{}")),
            ({"rank": 1, "roots": [["1"], ["-1"]], "cone": {"truncated": 2.5}}, ("validate", "{}")),
            (
                {"rank": 2, "objects": [{"id": "0", "cartan": A2_GCM}], "edges": [{"i": 1.5, "from": "0", "to": "0"}]},
                ("validate", "{}"),
            ),
            ({"rank": 1, "roots": [["1"], ["-1"]], "cone": {"truncated": -1}}, ("validate", "{}")),
            ({"rank": 1, "roots": [["1"], ["-1"]], "cone": {"truncated": -1}}, ("check", "{}", "--property", "cryst")),
            (LINE, ("check", "{}", "--property", "cryst")),
            (FLAT, ("check", "{}", "--property", "additive")),
            (LINE, ("check", "{}", "--property", "k-spherical")),
            (dict(LINE, cone={"affine": ["1", "1"]}), ("check", "{}", "--property", "k-spherical")),
            (FLAT, ("extract-graph", "{}")),
            (LINE, ("identify-rank2", "{}")),
            # JSON booleans are not numbers: true is not read as 1.
            ({"rank": True, "roots": [["1"], ["-1"]]}, ("validate", "{}")),
            ([[True, -1], [-1, 2]], ("validate", "{}")),
            (
                {"rank": 2, "objects": [{"id": "0", "cartan": A2_GCM}], "edges": [{"i": True, "from": "0", "to": "0"}]},
                ("validate", "{}"),
            ),
            ({"rank": 1, "roots": [[True], ["-1"]]}, ("validate", "{}")),
        ],
    )
    def test_bad_json_is_an_input_error(self, capsys, tmp_path, payload, argv):
        path = _write(tmp_path, payload)
        code, out, err = run(capsys, *(path if a == "{}" else a for a in argv))
        assert code == 2
        assert err.startswith("input error:") and err.count("\n") == 1
        assert "Traceback" not in out + err

    @pytest.mark.parametrize("argv", [("validate", "{}"), ("realize", "{}"), ("roundtrip", "{}")])
    @pytest.mark.parametrize("source,target", [("0", "2"), ("2", "0")], ids=["to", "from"])
    def test_graph_edge_at_an_undeclared_object_is_an_input_error(self, capsys, tmp_path, argv, source, target):
        payload = {
            "rank": 1,
            "objects": [{"id": "0", "cartan": [[2]]}, {"id": "1", "cartan": [[2]]}],
            "edges": [{"i": 0, "from": "0", "to": "1"}, {"i": 0, "from": "1", "to": "0"}]
            + [{"i": 0, "from": source, "to": target}],
        }
        path = _write(tmp_path, payload)
        code, out, err = run(capsys, *(path if a == "{}" else a for a in argv))
        assert code == 2
        assert err == "input error: an edge names the undeclared object '2'\n"
        assert "Traceback" not in out

    @pytest.mark.parametrize("argv", [("validate", "{}"), ("realize", "{}"), ("roundtrip", "{}"), ("roots", "{}")])
    @pytest.mark.parametrize(
        "payload,message",
        [
            (
                {
                    "rank": 1,
                    "objects": [{"id": str(n), "cartan": [[2]]} for n in range(3)],
                    "edges": [{"i": 0, "from": "0", "to": "1"}, {"i": 0, "from": "1", "to": "2"}],
                },
                "(C1) fails: rho_0^2(0) = 2",
            ),
            (
                {
                    "rank": 2,
                    "objects": [{"id": "0", "cartan": A2_GCM}, {"id": "1", "cartan": A2_GCM}],
                    "edges": [
                        {"i": 0, "from": "0", "to": "0"},
                        {"i": 1, "from": "0", "to": "1"},
                        {"i": 0, "from": "1", "to": "1"},
                    ],
                },
                "(C1) fails: rho_1^2(0) = None",
            ),
            (
                {
                    "rank": 2,
                    "objects": [{"id": "0", "cartan": A2_GCM}, {"id": "1", "cartan": [[2, -2], [-1, 2]]}],
                    "edges": [{"i": 0, "from": "0", "to": "1"}, {"i": 0, "from": "1", "to": "0"}],
                },
                "(C2) at (0, 0): row 0 differs across edge 0 -- 1",
            ),
        ],
        ids=["c1-other-object", "c1-missing-edge", "c2"],
    )
    def test_graph_breaking_a_local_axiom_fails_the_check(self, capsys, tmp_path, argv, payload, message):
        """A graph that breaks (C1) rho_i^2 = id or (C2) row agreement is
        refused as a failed check (exit 1), with the axiom's text."""
        path = _write(tmp_path, payload)
        code, out, err = run(capsys, *(path if a == "{}" else a for a in argv))
        assert (code, out, err) == (1, "", f"check failed: {message}\n")

    @pytest.mark.parametrize("argv", [("check", "{}", "--property", "cryst"), ("extract-graph", "{}")])
    @pytest.mark.parametrize(
        "table,seed,fragment",
        [
            ("a2", ["0", "1"], "seed (0, 1) lies on the hyperplane of (1, 0)"),
            ("aff-a1", ["-1", "-3"], "seed (-1, -3) is outside the cone of gamma = (1, 1)"),
            ("a2", ["1", "2", "3"], "seed (1, 2, 3) does not have rank 2"),
        ],
        ids=["on-hyperplane", "outside-cone", "wrong-rank"],
    )
    def test_bad_seed_is_an_input_error(self, capsys, tmp_path, table, seed, fragment, argv):
        payload = dict(table_to_json(builtin_table(table)), seed=seed)
        path = _write(tmp_path, payload)
        code, out, err = run(capsys, *(path if a == "{}" else a for a in argv))
        assert code == 2
        assert err == f"input error: {fragment}\n"
        assert "Fraction(" not in out + err

    def test_covectors_in_errors_read_as_rationals(self, capsys, tmp_path):
        path = _write(tmp_path, {"rank": 2, "roots": [["1", "0"], ["0", "1"], ["-1", "0"]]})
        code, _, err = run(capsys, "check", path, "--property", "cryst")
        assert code == 2
        assert err == "input error: malformed table JSON: table is not negation-closed: missing (0, -1)\n"

    @pytest.mark.parametrize(
        "payload",
        [
            {"rank": 2.0, "roots": [["1", "0"], ["-1", "0"]]},
            {"rank": "2", "roots": [["1", "0"], ["-1", "0"]]},
            {"rank": 1, "roots": [["1"], ["-1"]], "cone": {"truncated": 3.0}},
            {"rank": 1, "objects": [{"id": "0", "cartan": [[2]]}], "edges": [{"i": 0.0, "from": "0", "to": "0"}]},
        ],
    )
    def test_integral_json_numbers_are_read(self, capsys, tmp_path, payload):
        code, out, err = run(capsys, "validate", _write(tmp_path, payload))
        assert code == 0 and ": valid" in out and err == ""

    @pytest.mark.parametrize("matrix", [[[2.0]], [["2"]], [[2, -1], [-1, 2.0]]])
    def test_integral_matrix_entries_are_read(self, capsys, tmp_path, matrix):
        code, out, err = run(capsys, "validate", _write(tmp_path, matrix))
        assert code == 0 and "gcm: valid" in out and err == ""

    @pytest.mark.parametrize(
        "argv,stdout",
        [
            (("validate", "{}"), "table: valid, 4 roots"),
            (("localize", "{}", "--point", "0,1,1"), "localized roots: 2"),
            (("restrict", "{}", "--root", "1,0,0"), "restricted rank: 2"),
        ],
    )
    def test_non_spanning_table_keeps_its_answers_elsewhere(self, capsys, tmp_path, argv, stdout):
        path = _write(tmp_path, FLAT)
        code, out, err = run(capsys, *(path if a == "{}" else a for a in argv))
        assert code == 0 and stdout in out and err == ""

    def test_table_without_a_generic_seed_point_fails_the_check(self, capsys, tmp_path):
        """Every candidate seed point of this reduced rank-2 table lies on a
        root hyperplane."""
        lines = [(-100, 0), (-100, 100), (1, 4), (1, 1), (2, 1), (4, 1), (6, 1), (10, 1), (12, 1)]
        roots = [[str(s * c) for c in r] for r in lines for s in (1, -1)]
        path = _write(tmp_path, {"rank": 2, "roots": roots})
        code, out, err = run(capsys, "check", path, "--property", "cryst")
        assert (code, out, err) == (1, "", "check failed: no generic seed point found\n")

    @pytest.mark.parametrize(
        "argv",
        [("check", "{}", "--property", "cryst"), ("check", "{}", "--property", "additive"), ("extract-graph", "{}")],
    )
    def test_spherical_table_that_is_not_simplicial_fails_the_check(self, capsys, tmp_path, argv):
        """The lines of e1, e2, e3 and e1 + e2 + e3 cut the octant opposite the
        seed's into chambers with four walls: the survey's crossing into one
        is refused on a spherical table, as a failed check."""
        units = [[int(j == k) for j in range(3)] for k in range(3)]
        roots = [[s * c for c in r] for r in (*units, [1, 1, 1]) for s in (1, -1)]
        path = _write(tmp_path, {"rank": 3, "roots": roots, "seed": ["1", "2", "3"]})
        code, out, err = run(capsys, *(path if a == "{}" else a for a in argv))
        message = (
            "root (-1, -1, -1) separates the claimed chamber ((0, 0, -1), (0, 1, 0), (1, 0, 0)): coords (1, -1, -1)"
        )
        assert (code, out, err) == (1, "", f"check failed: {message}\n")


ENTRIES = st.sampled_from([0, 0, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 2)])


@st.composite
def table_case(draw):
    """A table JSON (rank -1..3 or at times a half-integer rank, negation closed or
    not, any cone, at times a half-integer truncation depth) and a command on it."""
    rank = draw(st.integers(-1, 3))
    width = draw(st.sampled_from([max(rank, 1)] * 4 + [max(rank, 1) + 1]))
    vector = st.lists(ENTRIES, min_size=width, max_size=width)
    roots = draw(st.lists(vector, max_size=5))
    if draw(st.booleans()) or not roots:
        roots += [[-c for c in r] for r in roots]
    payload = {"rank": draw(st.sampled_from([rank] * 4 + [rank + 0.5])), "roots": [[str(c) for c in r] for r in roots]}
    cone = draw(st.sampled_from(["spherical", "affine", "truncated", None]))
    if cone == "affine":
        payload["cone"] = {"affine": [str(c) for c in draw(vector)]}
    elif cone is not None:
        payload["cone"] = cone if cone == "spherical" else {"truncated": draw(st.sampled_from([3, 3, 2.5]))}
    if draw(st.booleans()):
        payload["seed"] = [str(c) for c in draw(vector)]
    covector = ",".join(str(c) for c in draw(vector))
    argv = draw(
        st.sampled_from(
            [
                ("validate",),
                ("check", "--property", "cryst"),
                ("check", "--property", "additive"),
                ("check", "--property", "k-spherical", "--k", str(draw(st.integers(-1, 4)))),
                ("extract-graph",),
                ("identify-rank2",),
                ("localize", f"--point={covector}"),
                ("restrict", f"--root={covector}"),
            ]
        )
    )
    return payload, argv


@st.composite
def graph_case(draw):
    """A graph JSON (1..3 objects, rank 0..3, edges with labels -1..rank or 0.5, an
    end that may be no object) or a bare matrix, and a command on it."""
    rank = draw(st.integers(0, 3))
    count = draw(st.integers(1, 3))

    def gcm():
        rows = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        for i in range(rank):
            for j in range(i + 1, rank):
                a = draw(st.integers(0, 3))
                rows[i][j] = -a
                rows[j][i] = -draw(st.integers(1, 3)) if a else 0
        if rank and draw(st.booleans()):  # one float entry, integral or not
            i, j = draw(st.integers(0, rank - 1)), draw(st.integers(0, rank - 1))
            rows[i][j] = draw(st.sampled_from([2.5, -0.5, -1.0, 2.0, float("inf"), float("nan")]))
        return rows

    objects = [{"id": str(k), "cartan": gcm()} for k in range(count)]
    edges = []
    for i, a, b in draw(
        st.lists(
            st.tuples(st.one_of(st.integers(-1, rank), st.just(0.5)), st.integers(0, count - 1), st.integers(0, count)),
            max_size=5,
        )
    ):
        edges.append({"i": i, "from": str(a), "to": str(b)})
        if draw(st.booleans()) or draw(st.booleans()):
            edges.append({"i": i, "from": str(b), "to": str(a)})
    payload = {"rank": rank, "objects": objects, "edges": edges}
    if draw(st.booleans()):
        payload = objects[0]["cartan"]  # a bare matrix: the standard graph
    argv = draw(st.sampled_from([("validate",), ("roots",), ("realize",), ("roundtrip",)]))
    return payload, argv


class TestJsonFuzz:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=st.one_of(table_case(), graph_case()), depth=st.integers(0, 3))
    def test_random_json_keeps_the_exit_code_contract(self, capsys, tmp_path, case, depth):
        payload, (command, *options) = case
        path = _write(tmp_path, payload)
        argv = ["--depth", str(depth), "--budget", "200", command, path, *options]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        captured = capsys.readouterr()
        assert code in (0, 1, 2, 3)
        assert captured.err.count("\n") <= 1
        assert "Traceback" not in captured.out + captured.err
