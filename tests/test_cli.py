import subprocess
import sys
from pathlib import Path

import pytest

import lrckit
from lrckit import (
    BitMatrix,
    DimensionTooLarge,
    FamilyNotFound,
    InvalidCodeword,
    InvalidParams,
    LrckitError,
    ParseError,
)
from lrckit import cli
from lrckit.cli import load_matrix, main, parse_matrix, render_matrix
from known_matrices import WZL_42_INCIDENCE, XLRC_221_COMPLEMENT


def _write_matrix(tmp_path, grid, name="h.txt"):
    path = tmp_path / name
    path.write_text(render_matrix(BitMatrix(grid)))
    return str(path)


def test_render_parse_round_trip():
    m = BitMatrix(XLRC_221_COMPLEMENT)
    assert parse_matrix(render_matrix(m)) == m


def test_render_format():
    text = render_matrix(BitMatrix([[1, 0], [0, 1]]))
    assert text == "2 2\n10\n01\n"


def test_parse_accepts_crlf():
    assert parse_matrix("1 2\r\n10\r\n") == BitMatrix([[1, 0]])


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("1 2\n10", 2),
        ("banana\n10\n", 1),
        ("1 2 3\n10\n", 1),
        ("0 2\n", 1),
        ("2 2\n10\n", 3),
        ("1 2\n10\n01\n", 3),
        ("1 2\n1\n", 2),
        ("1 2\n1x\n", 2),
        # Headers that int() reads but the "rows cols" format does not allow.
        ("+1 2\n10\n", 1),
        ("\uff11 2\n10\n", 1),
        ("1_0 2\n" + "10\n" * 10, 1),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc_info:
        parse_matrix(text)
    assert exc_info.value.line == line
    assert f"line {line}:" in str(exc_info.value)


def test_construct_writes_matrix_file(tmp_path, capsys):
    out = tmp_path / "wzl.txt"
    assert main(["construct", "wzl", "2", "2", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "wrote 4x6 matrix" in captured.out
    assert "n=6 k=3 r=2 t=2 x=0" in captured.out
    assert "rate 1/2 = 0.5000" in captured.out
    assert "d=3" in captured.out
    assert load_matrix(out) == BitMatrix(WZL_42_INCIDENCE)


def test_construct_stdout_split_streams(capsys):
    assert main(["construct", "xlrc", "2", "2", "1", "--convention", "complement"]) == 0
    captured = capsys.readouterr()
    assert parse_matrix(captured.out) == BitMatrix(XLRC_221_COMPLEMENT)
    assert "n=12 k=9 r=5 t=2 x=1" in captured.err
    assert "rate 3/4 = 0.7500" in captured.err


@pytest.mark.parametrize("x,d", [(0, 4), (3, 2)])
def test_construct_prints_distance_past_enumeration(x, d, capsys):
    # xlrc(5, 3, x) has dimension 35 at x = 0 and 203 at x = 3
    assert main(["construct", "xlrc", "5", "3", str(x)]) == 0
    assert f"\nd={d}\n" in capsys.readouterr().err


def test_construct_rejects_wrong_arity(capsys):
    assert main(["construct", "wzl", "2", "2", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_bounds_single_point(capsys):
    assert main(["bounds", "3", "2", "1"]) == 0
    out = capsys.readouterr().out
    assert "j=2: union min 5, union max 6" in out
    assert "f = 1/3 = 0.3333" in out
    assert "R* = 2/3 = 0.6667" in out
    assert "product" not in out


def test_bounds_zero_overlap_shows_product(capsys):
    assert main(["bounds", "4", "2", "0"]) == 0
    out = capsys.readouterr().out
    assert "R* = 32/45 = 0.7111" in out
    assert "product bound = 32/45 = 0.7111" in out


def test_bounds_table1_csv(capsys):
    assert main(["bounds", "--table1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r,t,x=0,x=1,x=2,x=3"
    assert lines[1] == "4,2,0.7111,0.7250,0.7429,0.7667"
    assert lines[-1] == "7,3,0.7795,0.7938,0.8103,0.8295"
    assert len(lines) == 9


def test_bounds_table2_csv(capsys):
    assert main(["bounds", "--table2", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r,t,rate_x0,bound_x0,rate_x1,bound_x1"
    assert lines[1] == "3,2,0.6000,0.6429,0.6667,0.6667"
    assert len(lines) == 7


def test_bounds_renders_a_negative_f(capsys):
    # f < 0 at t >= 4 and x >= 1 on some cells, so R* exceeds 1 there.
    assert main(["bounds", "1", "4", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-2:] == ["f = -1/2 = -0.5000", "R* = 3/2 = 1.5000"]


def test_bounds_requires_one_selection(capsys):
    assert main(["bounds", "--table1", "--table2"]) == 2
    assert main(["bounds"]) == 2
    assert main(["bounds", "3", "2"]) == 2


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_coordinate_fixed_at_zero_is_repaired(tmp_path, capsys, command):
    # Coordinate 2 is 0 in every codeword; its set comes from 1111.
    path = _write_matrix(tmp_path, [[0, 1, 0, 0], [1, 0, 1, 1]])
    assert main([command, path, "3", "1", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "result: ok" in captured.out


def test_verify_ok(tmp_path, capsys):
    path = _write_matrix(tmp_path, WZL_42_INCIDENCE)
    assert main(["verify", path, "2", "2", "0", "--deep"]) == 0
    out = capsys.readouterr().out
    assert "matrix: 4x6 (rank 3)" in out
    assert "search mode: dual-enum (exhaustive)" in out
    assert "deep separation check: ran" in out
    assert "result: ok" in out


def test_verify_stdout_with_overlap(tmp_path, capsys):
    path = _write_matrix(tmp_path, XLRC_221_COMPLEMENT)
    assert main(["verify", path, "5", "2", "1", "--deep"]) == 0
    checks = "".join(f"  {i}: sizes=5,5 overlap=1\n" for i in range(1, 13))
    assert capsys.readouterr().out == (
        "matrix: 4x12 (rank 3)\n"
        "search mode: dual-enum (exhaustive)\n"
        "checks at r=5 t=2 x=1:\n"
        f"{checks}"
        "deep separation check: ran\n"
        "result: ok\n"
    )


def test_verify_stdout_of_constructed_wzl(tmp_path, capsys):
    path = str(tmp_path / "h.txt")
    assert main(["construct", "wzl", "2", "2", "--out", path]) == 0
    capsys.readouterr()
    assert main(["verify", path, "2", "2", "0"]) == 0
    checks = "".join(f"  {i}: sizes=2,2 overlap=0\n" for i in range(1, 7))
    assert capsys.readouterr().out == (
        "matrix: 4x6 (rank 3)\n"
        "search mode: dual-enum (exhaustive)\n"
        "checks at r=2 t=2 x=0:\n"
        f"{checks}"
        "result: ok\n"
    )


def test_verify_family_not_found(tmp_path, capsys):
    path = _write_matrix(tmp_path, WZL_42_INCIDENCE)
    assert main(["verify", path, "1", "2", "0"]) == 1
    assert "no recovering-set family at coordinate 1" in capsys.readouterr().err


def test_verify_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n10\n111\n")
    assert main(["verify", str(path), "2", "2", "0"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_verify_missing_file(capsys):
    assert main(["verify", "/nonexistent/h.txt", "2", "2", "0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "Is a directory"),
        (b"\xff2 3\n", "line 1: byte 0xFF is not UTF-8 text"),
        (b"1 3\r\n0\xff1\r\n", "line 2: byte 0xFF is not UTF-8 text"),
    ],
    ids=["directory", "ff-header", "ff-row"],
)
def test_verify_unreadable_matrix_is_one_error_line(tmp_path, capsys, content, message):
    # exit 1 would claim a verified property failed; this is a bad input.
    path = tmp_path / "h.txt"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["verify", str(path), "1", "1", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_load_matrix_reads_universal_newlines(tmp_path):
    path = tmp_path / "h.txt"
    path.write_bytes(b"2 3\r011\r\n101\n")
    assert load_matrix(path) == BitMatrix([[0, 1, 1], [1, 0, 1]])


def test_graph_monte_carlo(tmp_path, capsys):
    assert main(["construct", "xlrc", "1", "2", "1", "--out", str(tmp_path / "h.txt")]) == 0
    capsys.readouterr()
    assert main(["graph", str(tmp_path / "h.txt"), "3", "2", "1", "--trials", "200"]) == 0
    out = capsys.readouterr().out
    assert "f(3,2,1) = 1/3 = 0.3333" in out
    assert "mean >= f - 3*stderr: PASS" in out
    assert "monochromatic walks acyclic: 200/200" in out
    assert "structural subset sweep: 20/20 passed" in out


def test_graph_exhaustive(tmp_path, capsys):
    assert main(["construct", "xlrc", "1", "2", "1", "--out", str(tmp_path / "h.txt")]) == 0
    capsys.readouterr()
    assert main(["graph", str(tmp_path / "h.txt"), "3", "2", "1", "--exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "exact expected colored fraction = 1/3 = 0.3333" in out
    assert "expectation >= f: PASS" in out


@pytest.mark.parametrize("extra", [[], ["--exhaustive"]])
def test_graph_with_a_negative_f(tmp_path, capsys, extra):
    # xlrc(1,5,1) is the (3,5,1) code of n = 12, where f is negative.
    assert main(["construct", "xlrc", "1", "5", "1", "--out", str(tmp_path / "h.txt")]) == 0
    capsys.readouterr()
    assert main(["graph", str(tmp_path / "h.txt"), "3", "5", "1"] + extra) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("f(3,5,1) = -23/336 = -0.0685\n")
    assert "expectation >= f: PASS" in captured.out
    assert "structural subset sweep: 20/20 passed" in captured.out


def test_graph_exhaustive_cap(tmp_path, capsys):
    # no cap on n: wzl(5,2) has n = 10, and its expectation is exactly f
    assert main(["construct", "wzl", "3", "2", "--out", str(tmp_path / "h.txt")]) == 0
    capsys.readouterr()
    assert main(["graph", str(tmp_path / "h.txt"), "3", "2", "0", "--exhaustive"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "exact expected colored fraction = 5/14 = 0.3571" in captured.out
    assert "expectation >= f: PASS" in captured.out
    assert "structural subset sweep: 20/20 passed" in captured.out


def test_graph_sweeps_past_twelve_vertices(tmp_path, capsys):
    # xlrc(2,3,1) has n = 20; the sweep runs at every n
    assert main(["construct", "xlrc", "2", "3", "1", "--out", str(tmp_path / "h.txt")]) == 0
    capsys.readouterr()
    assert main(["graph", str(tmp_path / "h.txt"), "5", "3", "1", "--trials", "1000"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "f(5,3,1) = 21/80 = 0.2625",
        "exact expected colored fraction = 19/70 = 0.2714",
        "expectation >= f: PASS",
        "trials=1000 seed=0",
        "colored fraction: mean=0.272000 stderr=0.000986",
        "mean >= f - 3*stderr: PASS",
        "monochromatic walks acyclic: 1000/1000",
        "structural subset sweep: 20/20 passed",
    ]


@pytest.mark.parametrize("seed", ["44", "1228", "2961"])
def test_graph_decides_on_the_exact_expectation(tmp_path, capsys, seed):
    # E = f on the 12-column example, so the 3-sigma Monte Carlo check fails
    # on a few seeds in a thousand; these are the ones among 0-2999. It is
    # printed as an estimate and does not set the exit code.
    path = str(tmp_path / "h.txt")
    assert main(["construct", "xlrc", "2", "2", "1", "--convention", "complement", "--out", path]) == 0
    capsys.readouterr()
    assert main(["graph", path, "5", "2", "1", "--seed", seed]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:3] == ["exact expected colored fraction = 7/30 = 0.2333", "expectation >= f: PASS"]
    assert "mean >= f - 3*stderr: FAIL" in out
    assert out[-2:] == ["monochromatic walks acyclic: 10000/10000", "structural subset sweep: 20/20 passed"]


def test_graph_accepts_the_widest_seed(tmp_path, capsys):
    path = _write_matrix(tmp_path, XLRC_221_COMPLEMENT)
    assert main(["graph", path, "5", "2", "1", "--trials", "50", "--seed", str(2**128 - 1)]) == 0
    assert f"trials=50 seed={2**128 - 1}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, options, last",
    [
        ("verify", [], "result: ok"),
        ("graph", ["--exhaustive"], "structural subset sweep: 20/20 passed"),
        ("simulate", ["--samples", "1"], "result: ok"),
    ],
)
def test_a_set_repeated_past_the_recursion_limit(tmp_path, capsys, command, options, last):
    # Dimension 1: each coordinate's one candidate is a single column, so at
    # x = 2 it repeats t = 1200 times, far past the recursion limit.
    path = _write_matrix(tmp_path, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    assert main([command, path, "2", "1200", "2", *options]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == last


def test_graph_where_f_is_past_a_float(tmp_path, capsys):
    # f(2,1200,2) is about -2.86e360, past a float: its sign decides the
    # 3-sigma line, since the mean lies in [0, 1].
    path = _write_matrix(tmp_path, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    assert main(["graph", path, "2", "1200", "2", "--trials", "100"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = captured.out.splitlines()
    assert "mean >= f - 3*stderr: PASS" in out
    assert out[-2:] == [
        "monochromatic walks acyclic: 100/100",
        "structural subset sweep: 20/20 passed",
    ]


def test_simulate(tmp_path, capsys):
    path = _write_matrix(tmp_path, XLRC_221_COMPLEMENT)
    assert main(["simulate", path, "5", "2", "1", "--samples", "3", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "samples=3 seed=4" in out
    assert "(100.00%)" in out
    assert "max helper load: 2" in out
    assert "result: ok" in out


@pytest.mark.parametrize(
    "command, options",
    [
        ("graph", ["--seed", "-1"]),
        ("simulate", ["--seed", "-1"]),
        ("simulate", ["--samples", "0"]),
        ("simulate", ["--samples", "-2"]),
        ("graph", ["--seed", str(2**128)]),
        ("graph", ["--seed", str(2**128), "--exhaustive"]),
    ],
)
def test_seed_and_samples_are_usage_errors(tmp_path, capsys, command, options):
    path = _write_matrix(tmp_path, XLRC_221_COMPLEMENT)
    assert main([command, path, "5", "2", "1", *options]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert "result:" not in captured.out


@pytest.mark.parametrize("trials", ["0", "1", "-3"])
def test_graph_trials_below_two_is_usage_error(tmp_path, capsys, trials):
    path = _write_matrix(tmp_path, XLRC_221_COMPLEMENT)
    assert main(["graph", path, "5", "2", "1", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --trials must be at least 2\n"


def test_graph_exhaustive_ignores_trials(tmp_path, capsys):
    assert main(["construct", "xlrc", "1", "2", "1", "--out", str(tmp_path / "h.txt")]) == 0
    capsys.readouterr()
    args = ["graph", str(tmp_path / "h.txt"), "3", "2", "1", "--exhaustive", "--trials", "0"]
    assert main(args) == 0
    assert "expectation >= f: PASS" in capsys.readouterr().out


def test_construct_xlrc_zero_overlap_matches_wzl(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["construct", "wzl", "2", "2", "--out", str(a)]) == 0
    assert main(["construct", "xlrc", "2", "2", "0", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_text() == b.read_text()


def test_bounds_single_availability(capsys):
    assert main(["bounds", "4", "1", "0"]) == 0
    assert "R* = 4/5 = 0.8000" in capsys.readouterr().out


def test_graph_output_is_reproducible(tmp_path, capsys):
    assert main(["construct", "xlrc", "1", "2", "1", "--out", str(tmp_path / "h.txt")]) == 0
    capsys.readouterr()
    args = ["graph", str(tmp_path / "h.txt"), "3", "2", "1", "--trials", "150", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


def test_module_entry_point(tmp_path):
    # run from the directory the package under test was imported from, so
    # the child finds it without an install or PYTHONPATH
    proc = subprocess.run(
        [sys.executable, "-m", "lrckit", "bounds", "3", "2", "1"],
        capture_output=True,
        text=True,
        cwd=Path(lrckit.__file__).resolve().parents[1],
    )
    assert proc.returncode == 0
    assert "R* = 2/3 = 0.6667" in proc.stdout


@pytest.mark.parametrize(
    "error,code",
    [
        (FamilyNotFound(coordinate=3, exhaustive=True), 1),
        (InvalidCodeword("vector fails the parity checks"), 1),
        (ParseError(2, "rows may contain only 0 and 1"), 2),
        (InvalidParams("bad parameters"), 2),
        (DimensionTooLarge("too large"), 2),
        (LrckitError("other library error"), 2),
        (FileNotFoundError("no such file"), 2),
        (IsADirectoryError("is a directory"), 2),
        (PermissionError("permission denied"), 2),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_exit_code_per_error_type(monkeypatch, capsys, error, code):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_bounds", fail)
    assert main(["bounds", "3", "2", "1"]) == code
    assert capsys.readouterr().err == f"error: {error}\n"


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc_info:
        main(["construct", "pyramid", "2", "2"])
    assert exc_info.value.code == 2
