import json
import math
import pathlib
import subprocess
import sys

import pytest

from siltglue.cli import main

SPEC_TEXT = """curve points=[x:3] V={x}
point x
[0,2]
[0,inf)
[2,inf)
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ext_kronecker(capsys):
    code, out, _ = run_cli(capsys, "ext", "Q1", "P1", "--kronecker")
    assert code == 0 and out == "2\n"


def test_ext_default_is_kronecker(capsys):
    code, out, _ = run_cli(capsys, "ext", "P1", "Q3")
    assert code == 0 and out == "0\n"


def test_hom_kronecker(capsys):
    code, out, _ = run_cli(capsys, "hom", "P1", "Q3")
    assert code == 0 and out == "2\n"


def test_ext_sums_add_up(capsys):
    code, out, _ = run_cli(capsys, "ext", "Q1^2", "P1")
    assert code == 0 and out == "4\n"
    # Ext(Q1, P1) = 2 and Ext(Q1, P2) = 3 summand-wise
    code, out, _ = run_cli(capsys, "ext", "Q1", "P1+P2")
    assert code == 0 and out == "5\n"


def test_tube_ext_and_tau(capsys):
    code, out, _ = run_cli(capsys, "ext", "[1,3]", "[0,2]", "--tube", "3")
    assert code == 0 and out == "1\n"
    code, out, _ = run_cli(capsys, "tau", "[1,3]", "--tube", "3")
    assert code == 0 and out == "[0,2]\n"


def test_tau_kronecker(capsys):
    code, out, _ = run_cli(capsys, "tau", "Q1")
    assert code == 0 and out == "Q3\n"
    code, out, _ = run_cli(capsys, "tau", "P1")
    assert code == 0 and out == "none\n"


def test_symbolic_ext(capsys):
    code, out, _ = run_cli(capsys, "ext", "Pruefer(1:0)", "Pruefer(0:1)")
    assert code == 0 and out == "0\n"
    code, _, err = run_cli(capsys, "hom", "Pruefer(1:0)", "Pruefer(0:1)")
    assert code == 1 and "error" in err


def test_glue_kronecker(capsys):
    code, out, _ = run_cli(capsys, "glue-kronecker", "--row", "P1",
                           "--left", "Q1", "--right", "P1")
    assert code == 0 and out == "Q1 + Q2\n"


def test_glue_kronecker_zero_output(capsys):
    code, out, _ = run_cli(capsys, "glue-kronecker", "--row", "P3",
                           "--left", "P2[1]", "--right", "P3")
    assert code == 0 and out == "0 w.r.t. P1[1] + P2[1]\n"


def test_glue_kronecker_inadmissible_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "glue-kronecker", "--row", "P1",
                           "--left", "P1", "--right", "P1")
    assert code == 1 and "not a silting complex" in err


@pytest.mark.parametrize("row, left", [("P0", "P1"), ("Q0", "Q1")])
def test_glue_kronecker_row_zero_is_domain_error(capsys, row, left):
    code, out, err = run_cli(capsys, "glue-kronecker", "--row", row,
                             "--left", left, "--right", row)
    assert code == 1 and out == "" and "row index starts at 1" in err


def test_regular_part_off_the_rational_points_is_a_named_domain_error(capsys):
    # the regular part of this literal lies at the roots of t**2 - 2
    code, out, err = run_cli(capsys, "glue-kronecker", "--row", "P2",
                             "--left", "[P1^2 -> P2^2 | (0,1) (1,0); "
                             "(2,0) (0,1)]", "--right", "P2")
    assert code == 1 and out == "" and "decomposition mismatch" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "tau", "[0,1]", "--tube", "3")
    assert code == 1 and "error" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_enumerate_rigid(capsys):
    code, out, _ = run_cli(capsys, "enumerate-rigid", "--rank", "2",
                           "--max-len", "2", "--pruefer")
    assert code == 0
    assert out.splitlines() == ["{[0,2], [0,inf)}",
                                "{[0,inf), [1,inf)}",
                                "{[1,3], [1,inf)}"]


def test_classify_silting(capsys):
    code, out, _ = run_cli(capsys, "classify-silting", "--bound", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0 w.r.t. P1[1] + P2[1] [silting non-tilting]"
    assert any("Lukas" in ln for ln in lines)


def test_oracle_check(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--rank", "2",
                           "--max-len", "3")
    assert code == 0
    assert "0 mismatches" in out


def test_emit_quiver(capsys):
    code, out, _ = run_cli(capsys, "emit-quiver", "--rank", "2",
                           "--max-len", "2")
    assert code == 0
    assert out.startswith("digraph tube {")


def test_maxlen_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SILTGLUE_MAXLEN", "1")
    code, out, _ = run_cli(capsys, "enumerate-rigid", "--rank", "2",
                           "--max-len", "5", "--pruefer")
    assert code == 0 and len(out.splitlines()) == 3


def test_maxlen_env_not_an_integer_is_a_named_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SILTGLUE_MAXLEN", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["enumerate-rigid", "--rank", "3"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "SILTGLUE_MAXLEN" in err and "'abc'" in err


def test_spec_file_pipeline(tmp_path, capsys):
    spec = tmp_path / "datum.txt"
    spec.write_text(SPEC_TEXT, encoding="utf-8")
    code, out, _ = run_cli(capsys, "choose-seed", "--spec", str(spec),
                           "--point", "x")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "side right"
    assert lines[1] == "lambda [1,3]"
    reduced = tmp_path / "reduced.txt"
    reduced.write_text("\n".join(lines[2:]) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "glue-tube", "--spec", str(reduced),
                           "--side", "right", "--lambda", "[1,3]",
                           "--point", "x")
    assert code == 0
    assert out.splitlines()[0] == "outcome new-summand [0,2]"
    assert "\n".join(out.splitlines()[1:]) + "\n" == SPEC_TEXT


def test_reduce_verb(tmp_path, capsys):
    spec = tmp_path / "datum.txt"
    spec.write_text(SPEC_TEXT, encoding="utf-8")
    code, out, _ = run_cli(capsys, "reduce", "--spec", str(spec),
                           "--lambda", "[1,3]", "--adjoint", "right",
                           "--point", "x")
    assert code == 0
    assert out.splitlines()[0] == "curve points=[x:2] V={x}"


def test_outputs_byte_stable(capsys):
    first = run_cli(capsys, "classify-silting")[1]
    second = run_cli(capsys, "classify-silting")[1]
    assert first == second
    first = run_cli(capsys, "enumerate-rigid", "--rank", "3", "--max-len",
                    "4", "--pruefer")[1]
    second = run_cli(capsys, "enumerate-rigid", "--rank", "3", "--max-len",
                     "4", "--pruefer")[1]
    assert first == second


def test_module_entry_point():
    out = subprocess.run([sys.executable, "-m", "siltglue.cli", "ext", "Q1",
                          "P1", "--kronecker"], capture_output=True,
                         text=True)
    assert out.returncode == 0 and out.stdout == "2\n"


def test_tall_point_literal_ends_in_a_named_domain_error():
    # the arrow pencil of this literal drops at the 31-bit point
    # 2147483647:1, which must be found in time polynomial in its bits
    out = subprocess.run(
        [sys.executable, "-m", "siltglue.cli", "glue-kronecker", "--row", "P2",
         "--left", "[P1^2 -> P2^2 | (2147483647,1) (1,0); "
         "(0,0) (2147483647,1)]", "--right", "P2"],
        capture_output=True, text=True, timeout=10)
    assert out.returncode == 1 and out.stdout == ""
    assert "not equivalent to a silting complex" in out.stderr


def test_large_row_literal_glues_in_a_subprocess():
    literal = (pathlib.Path(__file__).parent / "data"
               / "p19_literal.txt").read_text().strip()
    out = subprocess.run(
        [sys.executable, "-m", "siltglue.cli", "glue-kronecker", "--row",
         "P20", "--left", literal, "--right", "P20"],
        capture_output=True, text=True, timeout=10)
    assert out.returncode == 0 and out.stdout == "P19 + P20\n"


def test_rank_nine_maximal_rigid_listing_in_a_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "siltglue.cli", "enumerate-rigid", "--rank", "9",
         "--max-len", "8", "--pruefer"],
        capture_output=True, text=True, timeout=10)
    assert out.returncode == 0
    assert len(out.stdout.splitlines()) == math.comb(17, 9)


@pytest.mark.parametrize("argv, want", [
    pytest.param(["ext", "Q400", "P400"], "800", id="ext-Q400-P400-800"),
    pytest.param(["hom", "P400", "Q400"], "798", id="hom-P400-Q400-798"),
    pytest.param(["glue-kronecker", "--row", "P100000", "--left", "P99999",
                  "--right", "P100000"], "P99999 + P100000", id="glue-P100000"),
    pytest.param(["glue-kronecker", "--row", "Q100000", "--left", "Q100001",
                  "--right", "Q100000"], "Q100000 + Q100001", id="glue-Q100000"),
])
def test_large_index_answers_in_start_up_time(argv, want):
    # the closed forms, and gluing on a base row, cost the same at every index
    out = subprocess.run([sys.executable, "-m", "siltglue.cli", *argv],
                         capture_output=True, text=True, timeout=2)
    assert out.returncode == 0 and out.stdout == want + "\n"


def _modules_after(*argv):
    """The siltglue modules a fresh interpreter holds after importing the
    CLI and running it on argv (no verb: import only)."""
    code = ("import io, json, sys, contextlib, siltglue.cli\n"
            "argv = sys.argv[1:]\n"
            "if argv:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert siltglue.cli.main(argv) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] == 'siltglue')))\n")
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         capture_output=True, text=True, check=True)
    return set(json.loads(out.stdout))


CLI_ONLY = {"siltglue", "siltglue.cli"}
KRONECKER = CLI_ONLY | {"siltglue.exactlin", "siltglue.kronecker"}


@pytest.mark.parametrize("argv, want", [
    pytest.param([], CLI_ONLY, id="no-verb"),
    pytest.param(["tau", "[1,3]", "--tube", "3"],
                 CLI_ONLY | {"siltglue.tube"}, id="tau-tube"),
    pytest.param(["tau", "Q1"], KRONECKER, id="tau-kronecker"),
    pytest.param(["ext", "Q1", "P1"], KRONECKER, id="ext-kronecker"),
    pytest.param(["glue-kronecker", "--row", "P4", "--left", "P3",
                  "--right", "P4"],
                 KRONECKER | {"siltglue.complexes", "siltglue.silting"},
                 id="glue-kronecker"),
])
def test_each_verb_imports_only_its_modules(argv, want):
    assert _modules_after(*argv) == want


def test_spec_file_verb_imports_only_the_tube_half(tmp_path):
    spec = tmp_path / "datum.txt"
    spec.write_text(SPEC_TEXT, encoding="utf-8")
    assert _modules_after("choose-seed", "--spec", str(spec), "--point",
                          "x") == CLI_ONLY | {"siltglue.tube",
                                              "siltglue.expansion",
                                              "siltglue.glue"}
