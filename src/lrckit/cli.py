"""Command-line front end and the on-disk matrix format.

Subcommands: construct, bounds, verify, graph, simulate. Exit codes: 0 on
success, 1 when a verified property fails, 2 on usage, parse or file errors.

Matrix files are text: a "rows cols" header line, then one line of 0/1
characters per row, LF terminated.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .bounds import bound_report, decimal4, f_value, table1, table2
from .errors import (
    FamilyNotFound,
    InvalidCodeword,
    InvalidParams,
    LrckitError,
    ParseError,
)
from .gf2 import BitMatrix, rank
from .recovery_graph import (
    build_graph,
    color_vertices,
    exhaustive_expected_fraction,
    monte_carlo_colored_fraction,
    structural_sweep,
    trial_permutation,
)
from .repair_sim import simulate_repair, systematic_encode
from .verifier import AUTO, DUAL_ENUM, discover_family, resolve_search_mode, verify_family
from .xlrc import build_xlrc

__all__ = ["render_matrix", "parse_matrix", "load_matrix", "main"]

_SWEEP_PERMUTATIONS = 20


def render_matrix(matrix: BitMatrix) -> str:
    # Each row's digits are its entries plus ord("0"), then a newline.
    text = np.full((matrix.rows, matrix.cols + 1), ord("\n"), dtype=np.uint8)
    text[:, :-1] = matrix.array + ord("0")
    return f"{matrix.rows} {matrix.cols}\n" + text.tobytes().decode("ascii")


def parse_matrix(text: str) -> BitMatrix:
    """Parse the matrix format; ParseError names the offending 1-based line."""
    if not text.endswith("\n"):
        raise ParseError(text.count("\n") + 1, "missing trailing newline")
    lines = [ln[:-1] if ln.endswith("\r") else ln for ln in text.split("\n")[:-1]]
    if not lines:
        raise ParseError(1, "empty file")
    tokens = lines[0].split()
    if len(tokens) != 2:
        raise ParseError(1, 'header must be "rows cols"')
    # int() alone would take "+2", "1_0" and non-ASCII digits.
    if not all(token.isascii() and token.isdigit() for token in tokens):
        raise ParseError(1, "header dimensions must be integers")
    rows, cols = int(tokens[0]), int(tokens[1])
    if rows < 1 or cols < 1:
        raise ParseError(1, "dimensions must be positive")
    if len(lines) - 1 < rows:
        raise ParseError(len(lines) + 1, f"expected {rows} row lines, file ends early")
    if len(lines) - 1 > rows:
        raise ParseError(rows + 2, "unexpected content after the last row")
    for i, line in enumerate(lines[1:], start=2):
        if len(line) != cols:
            raise ParseError(i, f"expected {cols} characters, found {len(line)}")
        if line.count("0") + line.count("1") != cols:
            raise ParseError(i, "rows may contain only 0 and 1")
    # Every row is now ASCII 0s and 1s, so each byte less ord("0") is its bit.
    digits = np.frombuffer("".join(lines[1:]).encode("ascii"), dtype=np.uint8)
    return BitMatrix((digits - ord("0")).reshape(rows, cols))


def load_matrix(path: str | Path) -> BitMatrix:
    """Read a matrix file as UTF-8 text with universal newlines, as
    ``Path.read_text`` does, and parse it; a byte that is not UTF-8 is a
    ParseError naming its line."""
    data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"byte 0x{data[exc.start]:02X} is not UTF-8 text") from None
    return parse_matrix(text)


def _fraction_line(label: str, value: Fraction) -> str:
    return f"{label} = {value.numerator}/{value.denominator} = {decimal4(value)}"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrckit",
        description="Constructions, bounds, and verification for locally "
        "recoverable codes with overlapping recovering sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The arguments of every subcommand that searches a matrix's family.
    matrix_args = argparse.ArgumentParser(add_help=False)
    matrix_args.add_argument("matrix")
    matrix_args.add_argument("r", type=int)
    matrix_args.add_argument("t", type=int)
    matrix_args.add_argument("x", type=int)

    p = sub.add_parser("construct", help="build a parity-check matrix")
    p.add_argument("kind", choices=("wzl", "xlrc"))
    p.add_argument("params", nargs="+", type=int, help="wzl: r t; xlrc: r t x")
    p.add_argument("--convention", choices=("incidence", "complement"), default="incidence")
    p.add_argument("--out", help="write the matrix file here instead of stdout")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("bounds", help="exact rate bounds")
    p.add_argument("params", nargs="*", type=int, help="r t x")
    p.add_argument("--table1", action="store_true", help="bound grid over (r, t, x)")
    p.add_argument("--table2", action="store_true", help="construction rates vs bounds")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "verify", parents=[matrix_args], help="discover and check a recovering-set family"
    )
    p.add_argument("--deep", action="store_true", help="also check codeword separation")
    p.add_argument(
        "--mode",
        choices=("auto", "rows-only", "dual-enum", "bounded-combos"),
        default="auto",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "graph", parents=[matrix_args], help="random-permutation coloring experiment"
    )
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exhaustive", action="store_true", help="exact expectation")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("simulate", parents=[matrix_args], help="erasure repair sweep")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    return parser


def cmd_construct(args: argparse.Namespace) -> int:
    if args.kind == "wzl":
        if len(args.params) != 2:
            raise InvalidParams("construct wzl takes exactly: r t")
        r, t = args.params
        x = 0
    else:
        if len(args.params) != 3:
            raise InvalidParams("construct xlrc takes exactly: r t x")
        r, t, x = args.params
    code = build_xlrc(r, t, x, convention=args.convention)
    p = code.params
    summary = [
        f"n={p.n} k={p.k} r={p.r} t={p.t} x={p.x}",
        f"rate {p.rate.numerator}/{p.rate.denominator} = {decimal4(p.rate)}",
        f"d={p.d}",
    ]
    text = render_matrix(code.H)
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {code.H.rows}x{code.H.cols} matrix to {args.out}")
        print("\n".join(summary))
    else:
        sys.stdout.write(text)
        print("\n".join(summary), file=sys.stderr)
    return 0


def _table1_rows() -> list[list[str]]:
    rows = [["r", "t"] + [f"x={x}" for x in bounds_mod.TABLE1_OVERLAPS]]
    for (r, t), reports in zip(bounds_mod.TABLE1_PAIRS, table1()):
        rows.append([str(r), str(t)] + [rep.decimal4 for rep in reports])
    return rows


def _table2_rows() -> list[list[str]]:
    rows = [["r", "t", "rate_x0", "bound_x0", "rate_x1", "bound_x1"]]
    for row in table2():
        rows.append(
            [
                str(row.r),
                str(row.t),
                decimal4(row.wzl_rate),
                decimal4(row.upper_x0),
                decimal4(row.construction_x1),
                decimal4(row.upper_x1),
            ]
        )
    return rows


def _print_table(rows: list[list[str]], fmt: str) -> None:
    if fmt == "csv":
        for row in rows:
            print(",".join(row))
        return
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def cmd_bounds(args: argparse.Namespace) -> int:
    picked = sum((bool(args.table1), bool(args.table2), bool(args.params)))
    if picked != 1:
        raise InvalidParams("give either r t x, or exactly one of --table1/--table2")
    if args.table1:
        _print_table(_table1_rows(), args.format)
        return 0
    if args.table2:
        _print_table(_table2_rows(), args.format)
        return 0
    if len(args.params) != 3:
        raise InvalidParams("bounds takes exactly: r t x")
    r, t, x = args.params
    report = bound_report(r, t, x)
    print(f"r={r} t={t} x={x}")
    for j in range(1, t + 1):
        print(
            f"j={j}: union min {report.n_lower_by_j[j - 1]}, "
            f"union max {report.n_upper_by_j[j - 1]}"
        )
    print(_fraction_line("f", report.f))
    print(_fraction_line("R*", report.rate_upper))
    if report.rate_product_x0 is not None:
        print(_fraction_line("product bound", report.rate_product_x0))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    h = load_matrix(args.matrix)
    mode = resolve_search_mode(h, args.mode)
    exhaustive = " (exhaustive)" if mode == DUAL_ENUM else ""
    print(f"matrix: {h.rows}x{h.cols} (rank {rank(h)})")
    print(f"search mode: {mode}{exhaustive}")
    family = discover_family(h, args.r, args.t, args.x, mode=mode)
    report = verify_family(h, family, args.r, args.t, args.x, deep=args.deep)
    print(f"checks at r={args.r} t={args.t} x={args.x}:")
    for i, sets in enumerate(family.sets_by_coordinate, start=1):
        sizes = ",".join(str(len(s)) for s in sets)
        print(f"  {i}: sizes={sizes} overlap={report.overlaps[i - 1]}")
    if args.deep:
        print(f"deep separation check: {'ran' if report.deep_checked else 'skipped'}")
    if report.ok:
        print("result: ok")
        return 0
    for coordinate, reason in report.failures:
        print(f"  coordinate {coordinate}: {reason}")
    print(f"result: FAILED ({len(report.failures)} problems)")
    return 1


def cmd_graph(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise InvalidParams("--seed must be nonnegative")
    if not args.exhaustive and args.trials < 2:
        raise InvalidParams("--trials must be at least 2")
    h = load_matrix(args.matrix)
    family = discover_family(h, args.r, args.t, args.x)
    graph = build_graph(family)
    threshold = f_value(args.r, args.t, args.x)
    exact = exhaustive_expected_fraction(graph, family)
    ok = exact >= threshold
    lines = [
        _fraction_line("exact expected colored fraction", exact),
        f"expectation >= f: {'PASS' if ok else 'FAIL'}",
    ]
    if not args.exhaustive:
        # an estimate of the exact value above; where E = f the 3-sigma
        # check fails on about 0.1% of seeds, so it does not decide
        stats = monte_carlo_colored_fraction(graph, family, args.trials, args.seed)
        try:
            bound_ok = stats.mean >= float(threshold) - 3 * stats.stderr
        except OverflowError:
            # |f| is past a float and the mean lies in [0, 1]
            bound_ok = threshold < 0
        acyclic = stats.trials - stats.walk_failures
        lines += [
            f"trials={stats.trials} seed={args.seed}",
            f"colored fraction: mean={stats.mean:.6f} stderr={stats.stderr:.6f}",
            f"mean >= f - 3*stderr: {'PASS' if bound_ok else 'FAIL'}",
            f"monochromatic walks acyclic: {acyclic}/{stats.trials}",
        ]
        ok = ok and stats.walk_failures == 0
    perms = _SWEEP_PERMUTATIONS if args.exhaustive else min(_SWEEP_PERMUTATIONS, args.trials)
    passed = 0
    # The sweep's permutations are trials 0.. of the seed.
    for k in range(perms):
        ranks = trial_permutation(args.seed, k, graph.n)
        passed += structural_sweep(family, color_vertices(graph, family, ranks))
    print(_fraction_line(f"f({args.r},{args.t},{args.x})", threshold))
    print("\n".join(lines))
    print(f"structural subset sweep: {passed}/{perms} passed")
    return 0 if ok and passed == perms else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise InvalidParams("--seed must be nonnegative")
    if args.samples < 1:
        raise InvalidParams("--samples must be positive")
    h = load_matrix(args.matrix)
    dim = h.cols - rank(h)
    mode = resolve_search_mode(h, AUTO)
    family = discover_family(h, args.r, args.t, args.x, mode=mode)
    print(f"matrix: {h.rows}x{h.cols} (rank {h.cols - dim}, dimension {dim})")
    print(f"search mode: {mode}{' (exhaustive)' if mode == DUAL_ENUM else ''}")
    print(f"samples={args.samples} seed={args.seed}")
    successes = 0
    recoveries = 0
    histogram: Counter[int] = Counter()
    for idx in range(args.samples):
        rng = np.random.default_rng((args.seed, idx))
        message = rng.integers(0, 2, size=dim, dtype=np.uint8)
        cw = systematic_encode(h, message)
        for coord in range(1, h.cols + 1):
            trace = simulate_repair(h, family, cw, coord)
            truth = int(cw[coord - 1])
            for value in trace.recovered_values:
                recoveries += 1
                successes += value == truth
            histogram.update(trace.helper_load.values())
    pct = 100.0 * successes / recoveries if recoveries else 0.0
    print(f"recoveries: {recoveries}  successes: {successes} ({pct:.2f}%)")
    hist = " ".join(f"{load}:{histogram[load]}" for load in sorted(histogram))
    print(f"helper load histogram: {hist}")
    print(f"max helper load: {max(histogram, default=0)}")
    if recoveries and successes == recoveries:
        print("result: ok")
        return 0
    print("result: FAILED")
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FamilyNotFound, InvalidCodeword) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (LrckitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
