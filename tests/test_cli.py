import json
import math
import os
import pathlib
import resource
import select
import subprocess
import sys
import time

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


def usage_error(capsys, argv) -> str:
    """The stderr of a usage error on argv, checked: exit 2, nothing on
    stdout, and two lines on stderr, the usage and the reason."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    usage, reason = err.splitlines()
    verb = argv[0] if argv and argv[0] in VERBS else None
    assert usage.startswith(f"usage: siltglue {verb or ''}".rstrip())
    assert reason.startswith("siltglue: error: " if verb is None
                             else f"siltglue {verb}: error: ")
    return err


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


def test_glue_kronecker_literal_with_both_cancellations(capsys):
    # the minimal model cancels a P1 through the s11 entry 3 and a P2
    # through the s22 entry 1, which clears an arrow column of both rows
    code, out, _ = run_cli(capsys, "glue-kronecker", "--row", "P4", "--left",
                           "[P1^2+P2 -> P1+P2^3 | 3 (1,0) (0,1) (5,7); "
                           "0 (2,0) (0,2) (1,1); 0 0 0 1]", "--right", "P4")
    assert code == 0 and out == "P3 + P4\n"


def test_glue_kronecker_inadmissible_is_domain_error(capsys):
    code, _, err = run_cli(capsys, "glue-kronecker", "--row", "P1",
                           "--left", "P1", "--right", "P1")
    assert code == 1 and "not a silting complex" in err


@pytest.mark.parametrize("left, right", [
    ("P06", "P7"), ("P6", "pres(P07)"), (" pres( P006 ) ", "P0007")])
def test_glue_kronecker_reads_any_spelling_of_an_admissible_token(
        capsys, left, right):
    # the gluing sides read the object grammar that --row and ext read
    assert run_cli(capsys, "glue-kronecker", "--row", "P7", "--left", left,
                   "--right", right) == (0, "P6 + P7\n", "")


@pytest.mark.parametrize("left", ["P1[1]", "P01[1]", " P001[1] "])
def test_glue_kronecker_reads_a_shifted_projective_with_leading_zeros(
        capsys, left):
    # the index of P1[1] is read as parse_object reads the index of P01
    assert run_cli(capsys, "glue-kronecker", "--row", "P2", "--left", left,
                   "--right", "P2") == (0, "Q1 w.r.t. P1[1] + pres(Q1)\n", "")


@pytest.mark.parametrize("row, left, right, side, admissible", [
    ("Q5", "Q5", "Q5", "subcategory", "Q6"),
    ("P7", "P07[1]", "P7", "subcategory", "P6"),
    ("P7", "pres(pres(P6))", "P7", "subcategory", "P6"),
    ("P7", "P6", "P007x", "localized", "P7"),
    ("P7", "P6", "P0", "localized", "P7"),
    ("P5", "P3", "P5", "subcategory", "P4"),
    ("P2", "P0[1]", "P2", "subcategory", "P1, P1[1]"),
    ("P2", "Q1", "P2", "subcategory", "P1, P1[1]"),
])
def test_a_token_naming_no_admissible_generator_keeps_its_error(
        capsys, row, left, right, side, admissible):
    arg = left if side == "subcategory" else right
    assert run_cli(capsys, "glue-kronecker", "--row", row, "--left", left,
                   "--right", right) == (
        1, "", f"error: object {arg!r} is not a silting complex of the "
        f"{side} side for row {row}; admissible: {admissible}\n")


def test_a_zero_power_in_a_complex_literal_is_refused(capsys):
    # as in an object sum: P2^0 names no summand, so it is refused
    for literal in ("[P2^0+P2 -> 0]", "[P1 -> P2^00 | ]", "[0 -> P1^0]"):
        assert run_cli(capsys, "glue-kronecker", "--row", "P3", "--left",
                       literal, "--right", "P3") \
            == (1, "", "error: multiplicities must be positive\n")
    assert run_cli(capsys, "glue-kronecker", "--row", "P3", "--left",
                   "[P2^1 -> 0]", "--right", "P3") \
        == (0, "0 w.r.t. P1[1] + P2[1]\n", "")


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
    assert "found (0,0), expected (2,2);" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "tau", "[0,1]", "--tube", "3")
    assert code == 1 and "error" in err
    for arg in ("P1^x", "P1^1_0", "P1^ 2", "P1^\u0663", "P1^2^3"):
        assert run_cli(capsys, "ext", "Q1", arg) \
            == (1, "", f"error: cannot parse multiplicity in {arg!r}\n")
    assert run_cli(capsys, "ext", "Q1", "P1^0") \
        == (1, "", "error: multiplicities must be positive\n")
    assert run_cli(capsys, "emit-quiver", "--rank", "3", "--max-len", "0") \
        == (1, "", "error: max_len must be at least 1\n")
    for bound in ("0", "-5000"):
        assert run_cli(capsys, "oracle-check", "--rank", "3", "--max-len",
                       bound) == (1, "", "error: max_len must be at least 1\n")
    for argv in (["--max-len", "0"], ["--max-len", "-5", "--pruefer"]):
        assert run_cli(capsys, "enumerate-rigid", "--rank", "3", *argv) \
            == (1, "", "error: max_len must be at least 1\n")
    assert run_cli(capsys, "oracle-check", "--rank", "7", "--max-len", "16") \
        == (1, "", "error: oracle sweep of rank 7 to length 16 checks more "
            "than 12000 pairs\n")


# a digit outside 0-9 (here Arabic-Indic three, two and zero) is not a digit
# of any token
@pytest.mark.parametrize("argv, error", [
    (["ext", "--tube", "3", "[0,\u0662]", "[1,4]"],
     "cannot parse arc '[0,\u0662]'"),
    (["ext", "Q1", "P\u0663"], "cannot parse object 'P\u0663'"),
    (["ext", "Q1", "R(1:0,\u0663)"], "cannot parse object 'R(1:0,\u0663)'"),
    (["hom", "R(1:\u0660,1)", "R(1:0,2)"], "cannot parse point '1:\u0660'"),
    (["glue-kronecker", "--row", "P\u0663", "--left", "P2", "--right", "P3"],
     "unknown localization row 'P\u0663'"),
    (["glue-kronecker", "--row", "P2", "--left", "[P1^\u0663 -> 0]",
      "--right", "P2"], "cannot parse projective sum 'P1^\u0663 '"),
    (["glue-kronecker", "--row", "P4", "--left",
      "[P1^2+P2 -> P1+P2^3 | \u0663 (1,0) (0,1) (5,7); 0 (2,0) (0,2) (1,1); "
      "0 0 0 1]", "--right", "P4"], "row 0: stray text '\u0663'"),
], ids=["arc", "object", "regular", "point", "row", "power", "entry"])
def test_only_ascii_digits_are_read(capsys, argv, error):
    assert run_cli(capsys, *argv) == (1, "", f"error: {error}\n")


# a numeric flag is ASCII digits after at most a minus sign: int alone reads
# Arabic-Indic three as 3, '1_0' as 10, and '+3' and ' 3' as 3
@pytest.mark.parametrize("argv", [
    ["enumerate-rigid", "--max-len", "2", "--rank", "\u0663"],
    ["classify-silting", "--bound", "1_0"],
    ["oracle-check", "--rank", "+3"],
    ["emit-quiver", "--rank", " 3"],
    ["emit-quiver", "--rank", "3", "--max-len", "2 "],
    ["tau", "[1,3]", "--tube", "\u0663"],
    ["ext", "[1,3]", "[0,2]", "--tube", "3_0"],
], ids=["rank", "bound", "plus", "space", "trailing-space", "tube",
        "underscore"])
def test_numeric_flags_read_only_ascii_digits(capsys, argv):
    err = usage_error(capsys, argv)
    assert err.endswith(f"invalid integer value: {argv[-1]!r}\n")


def test_negative_flags_still_fail_by_name(capsys):
    for bound in ("0", "-1"):
        assert run_cli(capsys, "enumerate-rigid", "--rank", "3", "--max-len",
                       bound) == (1, "", "error: max_len must be at least 1\n")
    assert run_cli(capsys, "tau", "[1,3]", "--tube", "-3") \
        == (1, "", "error: tube rank must be at least 1\n")


def test_error_text_names_the_arc_as_written(capsys):
    # an arc is checked as it is parsed, so it is named before the Hom rule
    # for Pruefer arcs
    for argv in (["tau", "[0,1]"], ["ext", "[0,1]", "[0,2]"],
                 ["hom", "[0,1]", "[0,inf)"]):
        code, out, err = run_cli(capsys, *argv, "--tube", "3")
        assert (code, out) == (1, "")
        assert err == "error: finite arc needs end >= start + 2, got [0,1]\n"


def _env(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
def test_a_reader_closing_the_pipe_ends_the_listing_quietly(unbuffered):
    # 6435 lines, more than a pipe holds: the writer meets the closed pipe
    # in the middle of the listing
    proc = subprocess.Popen(
        [sys.executable, "-m", "siltglue.cli", "enumerate-rigid", "--rank",
         "8", "--max-len", "7", "--pruefer"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env(unbuffered))
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=10) == 141 and err == b""
    assert first == b"{[0,2], [0,3], [0,4], [0,5], [0,6], [0,7], [0,8], [0,inf)}\n"


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
def test_a_pipe_closed_before_the_answer_is_not_a_domain_error(unbuffered):
    # buffered, the one-line answer meets the closed pipe only when main
    # flushes it; unbuffered, when it is printed
    assert into_a_closed_pipe(unbuffered, "tau", "Q1") == (141, b"")


def test_help_into_a_closed_pipe_exits_quietly():
    # the usage text is written inside main's guarded region too
    assert into_a_closed_pipe(False, "--help") == (141, b"")


def into_a_closed_pipe(unbuffered, *argv):
    """Exit code and stderr of a CLI child whose stdout reader is gone."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "siltglue.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=_env(unbuffered),
            timeout=10)
    finally:
        os.close(write_end)
    return out.returncode, out.stderr


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["tau", "Q1", "Q2"], ["tau", "[0,2]", "[0,3]", "--tube", "3"],
    ["ext", "P1"], ["hom", "[0,2]", "--tube", "3"], ["ext", "P1", "P2", "P3"],
    ["tau"], ["enumerate-rigid", "3", "--rank", "3"],
])
def test_each_verb_takes_its_own_operand_count(capsys, argv):
    usage_error(capsys, argv)


VERBS = ["ext", "hom", "tau", "glue-kronecker", "glue-tube", "choose-seed",
         "reduce", "enumerate-rigid", "classify-silting", "oracle-check",
         "emit-quiver"]
RIGID_2_2 = "{[0,2], [0,inf)}\n{[0,inf), [1,inf)}\n{[1,3], [1,inf)}\n"
SPEC = ["--spec", "datum.txt"]


# flags are read as argparse read them: --name value or --name=value, in any
# order around the operands, a negative integer as a value or an operand,
# the last of a repeated flag; any other token that starts with - is a
# flag, and a long name is never abbreviated (argparse took --ran for
# --rank); -h and --help print usage to stdout and exit 0
@pytest.mark.parametrize("argv, code, want", [
    (["enumerate-rigid", "--rank=2", "--max-len=2", "--pruefer"], 0,
     RIGID_2_2),
    (["enumerate-rigid", "--pruefer", "--max-len", "2", "--rank", "2"], 0,
     RIGID_2_2),
    (["ext", "--tube", "3", "[1,3]", "[0,2]"], 0, "1\n"),
    (["ext", "[1,3]", "--tube=3", "[0,2]"], 0, "1\n"),
    (["tau", "[1,3]", "--tube", "5", "--tube", "3"], 0, "[0,2]\n"),
    (["tau", "[1,3]", "--tube", "-3"], 1, ""),
    (["tau", "[1,3]", "--tube=-3"], 1, ""),
    (["ext", "-3", "P1"], 1, ""),
    (["-h"], 0, VERBS), (["--help"], 0, VERBS), (["--help", "ext"], 0, VERBS),
    (["ext", "-h"], 0, ["ext"]), (["tau", "Q1", "--help"], 0, ["tau"]),
    (["reduce", *SPEC, "-h", "--frob"], 0, ["reduce"]),
    ([], 2, None), (["frobnicate"], 2, None), (["-3"], 2, None),
    (["--tube", "3", "ext", "P1", "P2"], 2, None),
    (["enumerate-rigid", "--ran", "3"], 2, None),
    (["enumerate-rigid", "--rank", "3", "--max", "2"], 2, None),
    (["enumerate-rigid", "--rank", "3", "--pruefer=yes"], 2, None),
    (["ext", "P1", "P2", "--frob"], 2, None),
    (["tau", "-Q1"], 2, None), (["tau", "Q1", "-"], 2, None),
    (["tau", "Q1", "--tube"], 2, None),
    (["emit-quiver", "--rank", "-x"], 2, None),
    (["glue-kronecker", "--row", "--left", "P3", "--right", "P4"], 2, None),
    (["glue-kronecker", "--row", "--help", "--left", "P3", "--right", "P4"],
     2, None),
    (["classify-silting", "--bound", "\u0663"], 2, None),
    (["glue-tube", *SPEC, "--side", "up", "--lambda", "[1,3]"], 2, None),
    (["reduce", *SPEC, "--lambda", "[1,3]", "--adjoint=Left"], 2, None),
    (["glue-tube", *SPEC, "--lambda", "[1,3]"], 2, None),
    (["choose-seed", *SPEC], 2, None), (["enumerate-rigid"], 2, None),
    (["ext", "P1", "P2", "--tube", "3", "--kronecker"], 2, None),
    (["tau", "P3", "--kronecker", "--tube=3"], 2, None),
])
def test_the_argument_reader(capsys, argv, code, want):
    if code == 2:
        usage_error(capsys, argv)
        return
    got = main(argv)
    out, err = capsys.readouterr()
    assert got == code
    if isinstance(want, list):
        assert err == "" and [line.split()[2] for line in
                              out.splitlines()] == want
        assert all(line.startswith("usage: siltglue ")
                   for line in out.splitlines())
    else:
        assert out == want and bool(err) == bool(code)


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


def first_line_under_a_memory_cap(*argv) -> bytes:
    """The first line a CLI child prints within 5 s under 1 GB of address
    space, after which the reader closes the pipe: the child must then
    exit 141."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.Popen(
        [sys.executable, "-m", "siltglue.cli", *argv], stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, preexec_fn=limit)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 5)
        assert ready, "no output within 5 s"
        first = proc.stdout.readline()
        proc.stdout.close()
        assert proc.wait(timeout=5) == 141
    finally:
        proc.kill()
        proc.wait()
    return first


def test_a_huge_classification_bound_streams_its_first_line():
    # the listing has two lines per unit of bound, far more than memory
    # holds: the first entry must arrive before the list is built, and the
    # child gets 1 GB of address space, so building it fails fast
    first = first_line_under_a_memory_cap("classify-silting", "--bound",
                                          "100000000")
    assert first == b"0 w.r.t. P1[1] + P2[1] [silting non-tilting]\n"


@pytest.mark.parametrize("rank, max_len", [("1000000", "2"),
                                           ("3", "100000000")])
def test_a_huge_quiver_streams_its_first_line(rank, max_len):
    # millions of vertices, and three lines or more for each: the DOT text
    # is written as it is built, in memory that does not grow with either
    first = first_line_under_a_memory_cap("emit-quiver", "--rank", rank,
                                          "--max-len", max_len)
    assert first == b"digraph tube {\n"


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


BIG_TUBE = ("curve points=[x:1000000000000000000, y:1] V={y}\npoint x\n"
            "[0,2]\npoint y\n[0,inf)\n")


@pytest.mark.parametrize("argv, want", [
    pytest.param(["glue-tube", "--side", "left", "--lambda", "[5,7]"],
                 "outcome new-summand [5,7]", id="glue-left"),
    pytest.param(["glue-tube", "--side", "right", "--lambda", "[5,7]"],
                 "outcome torsion-unchanged", id="glue-right"),
    pytest.param(["glue-tube", "--side", "right", "--lambda", "[1,3]"],
                 "outcome new-summand [0,2]", id="glue-right-new-summand"),
    pytest.param(["choose-seed"], "side left", id="choose-seed"),
])
def test_spec_verbs_at_rank_ten_to_the_eighteen_answer_in_start_up_time(
        tmp_path, argv, want):
    spec = tmp_path / "datum.txt"
    spec.write_text(BIG_TUBE, encoding="utf-8")
    out = subprocess.run(
        [sys.executable, "-m", "siltglue.cli", argv[0], "--spec", str(spec),
         "--point", "x", *argv[1:]],
        capture_output=True, text=True, timeout=2)
    assert out.returncode == 0 and out.stdout.splitlines()[0] == want
    if argv[1:3] == ["--side", "left"]:
        assert out.stdout.splitlines()[1:] == [
            "curve points=[x:1000000000000000001, y:1] V={y}", "point x",
            "[0,2]", "[5,7]", "point y", "[0,inf)"]


@pytest.mark.parametrize("argv", [
    pytest.param(["glue-tube", "--side", "left", "--lambda", "[5,7]"],
                 id="glue-tube"),
    pytest.param(["choose-seed", "--point", "x"], id="choose-seed"),
    pytest.param(["reduce", "--lambda", "[5,7]", "--adjoint", "left"],
                 id="reduce"),
])
def test_spec_verbs_reject_an_invalid_datum_with_its_first_reason(
        tmp_path, capsys, argv):
    # one Pruefer arc on a divisible tube of rank 10^5
    spec = tmp_path / "datum.txt"
    spec.write_text("curve points=[x:100000] V={x}\npoint x\n[0,inf)\n",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], "--spec", str(spec), *argv[1:])
    assert (code, out) == (1, "")
    assert err == ("error: not a tilting datum: point x: divisible tube "
                   "carries 1 arcs, expected 100000\n")


TWO_TUBES = "curve points=[x:3, y:1] V={y}\npoint x\n[0,2]\npoint y\n[0,inf)\n"


@pytest.mark.parametrize("argv", [
    pytest.param(["choose-seed"], id="choose-seed"),
    pytest.param(["glue-tube", "--side", "left", "--lambda", "[0,2]"],
                 id="glue-tube"),
    pytest.param(["reduce", "--lambda", "[0,2]", "--adjoint", "left"],
                 id="reduce"),
])
def test_spec_verbs_name_an_unknown_point(tmp_path, capsys, argv):
    spec = tmp_path / "datum.txt"
    spec.write_text(TWO_TUBES, encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], "--spec", str(spec), "--point",
                             "z", *argv[1:])
    assert (code, out, err) == (1, "", "error: no tube at point 'z'\n")


@pytest.mark.parametrize("argv", [
    pytest.param(["glue-tube", "--side", "right", "--lambda", "[1,3]"],
                 id="glue-tube"),
    pytest.param(["reduce", "--lambda", "[1,3]", "--adjoint", "right"],
                 id="reduce"),
])
def test_spec_verbs_resolve_the_point_of_a_single_tube(tmp_path, capsys,
                                                       argv):
    spec = tmp_path / "datum.txt"
    spec.write_text(SPEC_TEXT, encoding="utf-8")
    named = run_cli(capsys, argv[0], "--spec", str(spec), "--point", "x",
                    *argv[1:])
    assert named[0] == 0
    assert run_cli(capsys, argv[0], "--spec", str(spec), *argv[1:]) == named
    spec.write_text(TWO_TUBES, encoding="utf-8")
    code, out, err = run_cli(capsys, argv[0], "--spec", str(spec), *argv[1:])
    assert (code, out, err) == (
        1, "", "error: several tubes; the expansion point must be named\n")


@pytest.mark.parametrize("header, reason", [
    pytest.param("[x:2, x:3]", "point 'x' listed twice in the header",
                 id="duplicate"),
    pytest.param("[x]", "header entry must be 'id:rank', got 'x'",
                 id="no-rank"),
    pytest.param("[x:abc]", "header entry must be 'id:rank', got 'x:abc'",
                 id="non-integer"),
    pytest.param("[x:\u0663]", "header entry must be 'id:rank', got "
                 "'x:\u0663'", id="unicode-digit"),
])
def test_choose_seed_names_a_bad_header_entry(tmp_path, capsys, header,
                                              reason):
    spec = tmp_path / "datum.txt"
    spec.write_text(f"curve points={header} V={{x}}\npoint x\n[0,inf)\n",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "choose-seed", "--spec", str(spec),
                             "--point", "x")
    assert (code, out, err) == (1, "", f"error: {reason}\n")


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


@pytest.mark.parametrize("rank, max_len", [("2000", "2"), ("3", "100000")])
def test_an_oracle_sweep_past_its_pair_bound_is_refused_at_once(rank, max_len):
    # both ran past 10 s before the sweep was capped
    out = subprocess.run(
        [sys.executable, "-m", "siltglue.cli", "oracle-check", "--rank", rank,
         "--max-len", max_len], capture_output=True, text=True, timeout=5)
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == (f"error: oracle sweep of rank {rank} to length "
                          f"{max_len} checks more than 12000 pairs\n")


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


def test_too_many_rigid_collections_is_a_named_domain_error():
    # rank 40 to length 3 has far more maximal rigid collections than the
    # listing holds, and all are sorted before the first is printed: the
    # child gets 1 GB of address space and must stop by name within 2 s
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-m", "siltglue.cli", "enumerate-rigid", "--rank",
         "40", "--max-len", "3"],
        capture_output=True, text=True, timeout=10, preexec_fn=limit)
    assert time.monotonic() - start < 2.0
    assert (out.returncode, out.stdout, out.stderr) == (
        1, "", "error: rank 40 to length 3 has more than 100000 maximal "
        "rigid collections\n")


def test_a_huge_length_bound_lists_rigid_collections_in_start_up_time():
    # an arc of length n or more extends itself, so no longer arc is scanned
    out = subprocess.run(
        [sys.executable, "-m", "siltglue.cli", "enumerate-rigid", "--rank", "3",
         "--max-len", "10000000"],
        capture_output=True, text=True, timeout=10)
    assert out.returncode == 0
    assert len(out.stdout.splitlines()) == 6


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
    CLI and running it on argv (no verb: import only), and which of the
    HEAVY standard modules it holds."""
    code = ("import io, json, sys, contextlib, siltglue.cli\n"
            "argv = sys.argv[1:]\n"
            "if argv:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert siltglue.cli.main(argv) == 0\n"
            "print(json.dumps([sorted(m for m in sys.modules\n"
            "                         if m.split('.')[0] == 'siltglue'),\n"
            f"                  [m for m in {HEAVY!r}\n"
            "                   if m in sys.modules]]))\n")
    out = subprocess.run([sys.executable, "-c", code, *argv],
                         capture_output=True, text=True, check=True)
    ours, heavy = json.loads(out.stdout)
    return set(ours), heavy


# standard modules no token or tube verb needs: dataclasses and inspect
# (replaced by frozen), argparse with its gettext and locale (replaced by
# the table reader), and fractions with decimal, which only the explicit
# representations use
HEAVY = ("dataclasses", "inspect", "argparse", "gettext", "locale",
         "fractions")
CLI_ONLY = {"siltglue", "siltglue.cli"}
OBJECTS = CLI_ONLY | {"siltglue.frozen", "siltglue.objects"}


@pytest.mark.parametrize("argv, want, heavy", [
    pytest.param([], CLI_ONLY, [], id="no-verb"),
    pytest.param(["tau", "[1,3]", "--tube", "3"],
                 CLI_ONLY | {"siltglue.frozen", "siltglue.tube"}, [],
                 id="tau-tube"),
    pytest.param(["tau", "Q1"], OBJECTS, [], id="tau-kronecker"),
    pytest.param(["ext", "Q1", "P1"], OBJECTS, [], id="ext-kronecker"),
    pytest.param(["glue-kronecker", "--row", "P4", "--left", "P3",
                  "--right", "P4"],
                 OBJECTS | {"siltglue.complexes", "siltglue.exactlin",
                            "siltglue.kronecker", "siltglue.silting"},
                 ["fractions"], id="glue-kronecker"),
])
def test_each_verb_imports_only_its_modules(argv, want, heavy):
    assert _modules_after(*argv) == (want, heavy)


def test_spec_file_verb_imports_only_the_tube_half(tmp_path):
    spec = tmp_path / "datum.txt"
    spec.write_text(SPEC_TEXT, encoding="utf-8")
    ours, heavy = _modules_after("choose-seed", "--spec", str(spec),
                                 "--point", "x")
    assert ours == CLI_ONLY | {"siltglue.frozen", "siltglue.tube",
                               "siltglue.expansion", "siltglue.glue"}
    assert heavy == []
