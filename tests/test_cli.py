"""End-to-end command line behavior: bodies, reports, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path
from textwrap import dedent

import jsonschema
import pytest

from staircase import Order, Ring, diagram_of_ideal
from staircase.cli import COMMANDS, REPORT_SCHEMA, build_parser, main

MAIN_FILE = dedent("""\
    ring x y
    option seed 7
    ideal I
      x^3*y + x*y^4 - x^3*y^2
      x^2*y^3 + y^6 - x^2*y^4
    ideal M
      x^2 + y^3
      x*y
    map phi
      relations
        x*y
      components
        x + y
    map bad
      relations
        x*y
      components
        x
""")

GOOD_MAP_FILE = dedent("""\
    ring x y
    map phi
      relations
        x*y
      components
        x + y
""")

POOL_FILE = dedent("""\
    ring x y
    ideal J
      y - x^2
      y^3
""")

BAD_FILE = "ring x y\nideal I\n  x^\n"

# The truncated series family to depth 28, with the benchmark's seed-1 signs.
SERIES_FILE = "ring x y\nideal S\n  x^3*y" + "".join(
    f" {'-+'[k % 2]} x*y^{k}" for k in range(4, 28)) + "\n  -x^2*y^3" + "".join(
    f" {'+-'[k % 2]} y^{k}" for k in range(6, 29)) + "\n"

SMALL3_FILE = dedent("""\
    ring x y z
    ideal A
      x^2 - y*z^2 + x*y*z
      x*z - y^3 - 2*x^2*y
      -x*y - y^2*z + z^4
    ideal B
      -x*y + z^3
      y^2*z + x^3 - z^4
      x*z^2 + y^4
""")


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("main", MAIN_FILE), ("good", GOOD_MAP_FILE),
                       ("pool", POOL_FILE), ("bad", BAD_FILE),
                       ("series", SERIES_FILE), ("small3", SMALL3_FILE)]:
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv + ["--json"])
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


def test_diagram_human_body(capsys, files):
    code, out, err = run(capsys, ["diagram", files["main"]])
    assert code == 0
    assert "ideal I" in out
    assert "vertices: (3,1) (2,3)" in out
    assert "dimension: 1" in out
    assert "elapsed" in err
    assert "elapsed" not in out


def test_stdout_is_deterministic(capsys, files):
    first = run(capsys, ["sweep", files["main"], "--mu", "5..7"])
    second = run(capsys, ["sweep", files["main"], "--mu", "5..7"])
    assert first[0] == second[0] == 0
    assert first[1] == second[1]
    third = run(capsys, ["diagram", files["main"], "--json"])
    fourth = run(capsys, ["diagram", files["main"], "--json"])
    assert third[1] == fourth[1]


def test_json_reports_validate(capsys, files):
    for argv in (
        ["diagram", files["main"]],
        ["vertices", files["main"]],
        ["hilbert", files["main"], "--bound", "4"],
        ["dim", files["main"]],
        ["regseq", files["main"], "--bound", "8"],
        ["flat-ci", files["main"]],
        ["milnor", files["main"]],
        ["jet", files["main"], "--mu", "4"],
        ["sweep", files["main"], "--mu", "5..6"],
        ["oracle-check", files["main"]],
        ["det-example"],
    ):
        code, report = run_json(capsys, argv)
        assert code == 0
        assert report["results"]


def test_json_report_fields(capsys, files):
    _, report = run_json(capsys, ["diagram", files["main"]])
    assert report["command"] == "diagram"
    assert report["inputs"]["ideals"] == ["I", "M"]
    assert report["inputs"]["maps"] == ["phi", "bad"]
    assert len(report["inputs"]["sha256"]) == 64
    assert report["seed"] == 7
    assert report["order"] == [1, 1]
    entry = report["results"][0]
    assert entry["vertices"] == [[3, 1], [2, 3]]
    assert entry["dimension"] == 1


def test_seed_precedence(capsys, files):
    _, report = run_json(capsys, ["regseq", files["main"]])
    assert report["seed"] == 7
    _, flagged = run_json(capsys, ["regseq", files["main"], "--seed", "3"])
    assert flagged["seed"] == 3
    _, bare = run_json(capsys, ["regseq", files["good"]])
    assert bare["seed"] == 0


def test_order_flag(capsys, files):
    _, report = run_json(capsys, ["vertices", files["main"], "--order", "2,1"])
    assert report["order"] == [2, 1]


def test_dim_command(capsys, files):
    code, report = run_json(capsys, ["dim", files["main"]])
    assert code == 0
    assert report["results"] == [
        {"name": "I", "dimension": 1},
        {"name": "M", "dimension": 0},
    ]


def test_hilbert_pinned(capsys, files):
    _, report = run_json(capsys, ["hilbert", files["main"], "--bound", "4"])
    by_name = {entry["name"]: entry for entry in report["results"]}
    assert by_name["M"]["values"] == [1, 3, 4, 5, 5]
    assert by_name["M"]["bound"] == 4


def test_hilbert_computes_only_inside_its_window(capsys, tmp_path):
    # The uncapped completion of this ideal does not finish in 10 s; the
    # counts up to total degree 8 need only lengths below 9.
    path = tmp_path / "r3_26.txt"
    path.write_text(dedent("""\
        ring x y z
        ideal r3_26
          -4*x*z + 2*x^4*y
          x*z + y^2*z + 4*x^2*z + 4*x^4*z
          -4*z - 3*y*z^2 + 2*x*y^2
    """))
    code, out, _ = run(capsys, ["hilbert", str(path), "--bound", "8"])
    assert code == 0
    assert "ideal r3_26: H(0..8) = 1 3 6 10 14 17 19 21 23\n" in out


def test_hilbert_window_under_weights(capsys, files):
    # Total degree 6 reaches weighted length 18 under weights (3,1).
    _, report = run_json(capsys, ["hilbert", files["main"], "--bound", "6",
                                  "--order", "3,1"])
    ring = Ring(("x", "y"), order=Order((3, 1)))
    x, y = ring.variable("x"), ring.variable("y")
    exact = {"I": diagram_of_ideal([x ** 3 * y + x * y ** 4 - x ** 3 * y ** 2,
                                    x ** 2 * y ** 3 + y ** 6 - x ** 2 * y ** 4]),
             "M": diagram_of_ideal([x ** 2 + y ** 3, x * y])}
    for entry in report["results"]:
        assert entry["values"] == exact[entry["name"]].hilbert_vector(6)


def test_regseq_axis_certificate_only_with_bound(capsys, files):
    _, plain = run_json(capsys, ["regseq", files["main"]])
    assert all("axis_certificate" not in e for e in plain["results"])
    _, bounded = run_json(capsys, ["regseq", files["main"], "--bound", "8"])
    by_name = {entry["name"]: entry for entry in bounded["results"]}
    assert by_name["I"]["verdict"]["kind"] == "certified-no"
    assert by_name["M"]["verdict"]["kind"] == "certified-yes"
    axis = by_name["M"]["axis_certificate"]
    assert axis["kind"] == "certified-yes"
    assert axis["certificate"]["axis_vertices"] == [[2, 0], [0, 4]]


def test_flat_ci_and_milnor(capsys, files):
    _, report = run_json(capsys, ["flat-ci", files["main"]])
    by_name = {entry["name"]: entry for entry in report["results"]}
    assert by_name["phi"]["verdict"]["kind"] == "certified-yes"
    assert by_name["bad"]["verdict"]["kind"] == "certified-no"
    _, lengths = run_json(capsys, ["milnor", files["main"]])
    by_name = {entry["name"]: entry for entry in lengths["results"]}
    assert by_name["phi"] == {"name": "phi", "milnor_mu0": 2, "finite": True}
    assert by_name["bad"] == {"name": "bad", "milnor_mu0": None,
                              "finite": False}


def test_jet_command(capsys, files):
    _, report = run_json(capsys, ["jet", files["main"], "--mu", "4"])
    entry = report["results"][0]
    assert entry["name"] == "I"
    assert entry["jets"] == ["x^3*y"]
    assert entry["vertices"] == [[3, 1]]
    _, report = run_json(capsys, ["jet", files["main"], "--mu", "5"])
    entry = report["results"][0]
    assert entry["jets"] == ["x^3*y + x*y^4 - x^3*y^2", "x^2*y^3"]
    assert entry["vertices"] == [[3, 1], [2, 3], [1, 6]]


def test_sweep_command(capsys, files):
    code, report = run_json(capsys, ["sweep", files["main"], "--mu", "5..7"])
    assert code == 0
    entry = report["results"][0]
    assert entry["name"] == "I"
    assert entry["stabilized_at"] == 6
    assert entry["summary"] == "observed stabilization at mu=6 within the range"
    assert [row["equal"] for row in entry["rows"]] == [False, True, True]
    code, out, _ = run(capsys, ["sweep", files["main"], "--mu", "5..7"])
    assert "summary: observed stabilization at mu=6" in out


def test_oracle_check_command(capsys, files):
    _, report = run_json(capsys, ["oracle-check", files["main"]])
    for entry in report["results"]:
        assert entry["agree"]
        assert entry["first_difference"] is None
        assert entry["bound"] == 8
    _, narrow = run_json(capsys, ["oracle-check", files["main"],
                                  "--bound", "5"])
    assert narrow["results"][0]["bound"] == 5


def test_det_example(capsys):
    code, out, _ = run(capsys, ["det-example"])
    assert code == 0
    assert "mu 5: det = x*y^6 | expected x*y^6 | ok" in out
    assert "mu 10" in out
    code, report = run_json(capsys, ["det-example", "--mu", "5..6",
                                     "--expect-yes"])
    assert code == 0
    assert [row["match"] for row in report["results"]] == [True, True]
    assert report["inputs"] == {"builtin": "truncated-family", "mu": "5..6"}


def test_expect_yes_exit_codes(capsys, files):
    code, _, _ = run(capsys, ["flat-ci", files["main"], "--expect-yes"])
    assert code == 2
    code, _, _ = run(capsys, ["flat-ci", files["good"], "--expect-yes"])
    assert code == 0
    code, _, _ = run(capsys, ["regseq", files["main"], "--expect-yes"])
    assert code == 2


def test_parse_error_exit_code(capsys, files):
    code, out, err = run(capsys, ["diagram", files["bad"]])
    assert code == 1
    assert out == ""
    assert "parse error: line 3" in err


def test_exponents_past_the_packed_field_exit_1(capsys, tmp_path):
    # In the input the refusal is a parse error at the exponent; reached by
    # a product, it names the ideal.
    parsed = tmp_path / "parsed.txt"
    parsed.write_text("ring x y\nideal I\n  x^3000000000 + y\n")
    code, out, err = run(capsys, ["diagram", str(parsed)])
    assert (code, out) == (1, "")
    assert err == ("parse error: line 3, column 5: exponent 3000000000 "
                   "does not fit a packed field (limit 2^31)\n")
    reached = tmp_path / "reached.txt"
    reached.write_text("ring x y\nideal I\n  x^1073741824*y\n"
                       "  x^1073741824 + y^2\n")
    code, out, err = run(capsys, ["diagram", str(reached)])
    assert (code, out) == (1, "")
    assert err == ("error: ideal I: exponent 2147483648 does not fit a "
                   "packed field (limit 2^31)\n")


def test_oversized_literals_exit_1_with_their_column(capsys, tmp_path):
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not digits:
        pytest.skip("no int-conversion limit on this interpreter")
    path = tmp_path / "big.txt"
    path.write_text(f"ring x y\nideal I\n  y + 1{'0' * digits}*x\n")
    code, out, err = run(capsys, ["diagram", str(path)])
    assert (code, out) == (1, "")
    assert err == (f"parse error: line 3, column 7: integer literal of "
                   f"{digits + 1} digits is too long\n")


NOT_REGULAR_FILE = dedent("""\
    ring x y
    map nc
      relations
        x*y
        x^2
      components
        x + y
""")


def test_flat_ci_reports_relations_that_are_not_a_regular_sequence(
        capsys, tmp_path):
    path = tmp_path / "nc.txt"
    path.write_text(NOT_REGULAR_FILE)
    error = ("the relations are not a certified regular sequence, so the "
             "fibre-dimension flatness test does not apply")
    code, out, _ = run(capsys, ["flat-ci", str(path)])
    assert code == 0
    assert out.splitlines()[-1] == f"map nc: error: {error}"
    code, report = run_json(capsys, ["flat-ci", str(path)])
    assert code == 0
    assert report["results"] == [{"name": "nc", "error": error}]
    code, _, _ = run(capsys, ["flat-ci", str(path), "--expect-yes"])
    assert code == 2


def test_oracle_check_prints_where_the_engines_disagree(
        capsys, files, monkeypatch):
    from staircase import jet_oracle

    def disagree(gens, bound, *, ring=None):
        return jet_oracle.CrossCheckReport(False, (0, 2), bound, ((0, 2),), ())
    monkeypatch.setattr(jet_oracle, "oracle_cross_check", disagree)
    code, out, _ = run(capsys, ["oracle-check", files["main"], "--bound", "5"])
    assert code == 0
    assert "ideal I: DISAGREE at (0,2) below length 5" in out.splitlines()
    code, _, _ = run(capsys, ["oracle-check", files["main"], "--expect-yes"])
    assert code == 2


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, err = run(capsys, ["diagram", str(tmp_path / "absent.txt")])
    assert code == 1
    assert "cannot read input" in err


@pytest.mark.parametrize("argv", [
    [],
    ["unknown-command"],
    ["sweep"],
    ["jet"],
    ["det-example", "--mu", "4..6"],
    ["det-example", "--mu", "7..5"],
    ["det-example", "--mu", "x"],
    ["det-example", "--bound", "-3"],
])
def test_usage_errors(capsys, files, argv):
    code, _, err = run(capsys, argv)
    assert code == 1
    assert "usage error" in err


def test_usage_errors_with_file(capsys, files, tmp_path):
    for argv in (
        ["jet", files["main"], "--mu", "5..7"],
        ["sweep", files["main"], "--mu", "7..5"],
        ["vertices", files["main"], "--order", "1,x"],
        ["vertices", files["main"], "--order", "0,1"],
        ["hilbert", files["main"], "--bound", "-3"],
        ["sweep", files["main"], "--mu", "5..6", "--len", "-3"],
        ["regseq", files["main"], "--trials", "0"],
        ["regseq", files["main"], "--bound", "0"],
        ["oracle-check", files["main"], "--bound", "0"],
    ):
        code, _, err = run(capsys, argv)
        assert code == 1
        assert "usage error" in err
        if "--bound" in argv:
            assert "--bound" in err
    # An option line gets the same check as the flag it stands for.
    zero_trials = tmp_path / "zero-trials.txt"
    zero_trials.write_text(MAIN_FILE.replace(
        "option seed 7\n", "option seed 7\noption trials 0\n"))
    code, _, err = run(capsys, ["regseq", str(zero_trials), "--bound", "4"])
    assert code == 1
    assert "usage error: --trials requires a positive integer" in err
    # A window needs length 1, but H(0..0) is a fine question.
    code, out, _ = run(capsys, ["hilbert", files["main"], "--bound", "0"])
    assert code == 0
    assert ": H(0..0) = 1\n" in out


# The commands that read each flag; every other command rejects it.
FLAG_READERS = {
    "--trials": {"regseq"},
    "--bound": {"hilbert", "regseq", "oracle-check"},
    "--expect-yes": {"regseq", "flat-ci", "oracle-check", "det-example"},
}
REQUIRED_ARGS = {"jet": ["--mu", "4"], "sweep": ["--mu", "5..6"]}


@pytest.mark.parametrize("flag", sorted(FLAG_READERS))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_commands_take_only_the_flags_they_read(capsys, files, command, flag):
    argv = [command] + ([files["main"]] if COMMANDS[command].over else [])
    argv += REQUIRED_ARGS.get(command, []) + [flag]
    if flag != "--expect-yes":
        argv.append("2")
    if command in FLAG_READERS[flag]:
        args = build_parser().parse_args(argv)
        assert vars(args)[flag[2:].replace("-", "_")] in (2, True)
        return
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert "usage error" in err
    assert flag in err


def test_pool_ceiling_exit_code(capsys, files, monkeypatch):
    monkeypatch.setenv("STAIRCASE_POOL_CEILING", "0")
    code, out, err = run(capsys, ["diagram", files["pool"]])
    assert code == 3
    assert out == ""
    assert "resource ceiling: ideal J: " in err
    assert "STAIRCASE_POOL_CEILING" in err


def run_process(argv):
    """The CLI in a fresh process, stopped after 20 s."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run([sys.executable, "-m", "staircase.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=20)


def test_uncertified_ideal_exits_3_naming_it_and_the_budget(files):
    # Under weights (3,1) the series ideal has an infinite complement, so
    # its uncapped completion runs away and no capped round certifies it.
    done = run_process(["sweep", files["series"], "--mu", "5..8",
                        "--order", "3,1"])
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.startswith(
        "resource ceiling: ideal S: Mora work exceeded the budget of 100000 ")
    assert "STAIRCASE_WORK_BUDGET" in done.stderr


def test_budget_breach_certifies_and_answers(files):
    # Ideal A runs away uncapped under weights (2,1,3); a capped round
    # certifies its staircase.
    done = run_process(["regseq", files["small3"], "--bound", "6",
                        "--order", "2,1,3"])
    assert done.returncode == 0
    assert "ideal A: certified-yes" in done.stdout
    assert "ideal B: certified-yes" in done.stdout


# Full human and JSON stdout of every command on MAIN_FILE. Stdout is part
# of the interface, so a file here changes only with an intended output change.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("stem,argv", [
    ("diagram", ["diagram", "main.txt"]),
    ("vertices", ["vertices", "main.txt"]),
    ("hilbert", ["hilbert", "main.txt"]),
    ("dim", ["dim", "main.txt"]),
    ("regseq", ["regseq", "main.txt", "--bound", "8"]),
    ("flat-ci", ["flat-ci", "main.txt"]),
    ("milnor", ["milnor", "main.txt"]),
    ("jet", ["jet", "main.txt", "--mu", "5"]),
    ("sweep", ["sweep", "main.txt", "--mu", "5..7"]),
    ("sweep-order", ["sweep", "main.txt", "--mu", "5..7", "--order", "2,3"]),
    ("oracle-check", ["oracle-check", "main.txt"]),
    ("det-example", ["det-example"]),
])
@pytest.mark.parametrize("suffix,flags", [(".txt", []), (".json", ["--json"])])
def test_golden_stdout(capsys, tmp_path, monkeypatch, stem, argv, suffix, flags):
    # A relative file name keeps the `file:` line independent of tmp_path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "main.txt").write_text(MAIN_FILE)
    code, out, _ = run(capsys, argv + flags)
    assert code == 0
    assert out == (GOLDEN / (stem + suffix)).read_text()


# Help texts and usage errors, taken from the command line that built every
# command's arguments up front; the parser now builds only the selected
# command's, and these must not move.
USAGE_CASES = json.loads((GOLDEN / "usage.json").read_text())


@pytest.mark.parametrize("case", USAGE_CASES,
                         ids=lambda case: " ".join(case["argv"]) or "-")
def test_help_and_usage_errors_are_unchanged(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    try:
        code = main(case["argv"])
    except SystemExit as exc:  # --help prints and exits through argparse
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["exit"], case["stdout"], case["stderr"])


def test_only_the_selected_command_builds_its_arguments():
    parser = build_parser()
    parser.parse_args(["jet", "f.txt", "--mu", "3"])
    subparsers = parser._subparsers._group_actions[0].choices
    built = {name for name, sub in subparsers.items() if sub._actions[1:]}
    assert built == {"jet"}
