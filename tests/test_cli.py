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


def test_bounds_requires_one_selection(capsys):
    assert main(["bounds", "--table1", "--table2"]) == 2
    assert main(["bounds"]) == 2
    assert main(["bounds", "3", "2"]) == 2


def test_verify_ok(tmp_path, capsys):
    path = _write_matrix(tmp_path, WZL_42_INCIDENCE)
    assert main(["verify", path, "2", "2", "0", "--deep"]) == 0
    out = capsys.readouterr().out
    assert "matrix: 4x6 (rank 3)" in out
    assert "search mode: dual-enum (exhaustive)" in out
    assert "deep separation check: ran" in out
    assert "result: ok" in out


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
        "trials=1000 seed=0",
        "colored fraction: mean=0.271250 stderr=0.000965",
        "mean >= f - 3*stderr: PASS",
        "monochromatic walks acyclic: 1000/1000",
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
