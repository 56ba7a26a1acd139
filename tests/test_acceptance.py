"""Acceptance suite: ten numbered criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see every line; without
``-s`` the lines surface only for failing criteria.
"""

import time
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np
import pytest

from lrckit import (
    BitMatrix,
    build_graph,
    build_wzl,
    build_xlrc,
    canonical_family,
    decimal4,
    discover_family,
    exhaustive_expected_fraction,
    f_value,
    map_params,
    monte_carlo_colored_fraction,
    rank,
    rate_product,
    rate_upper,
    simulate_repair,
    systematic_encode,
    table1,
    table2,
    verify_family,
)
from known_matrices import XLRC_221_COMPLEMENT
from oracles import min_distance

TABLE1_EXPECTED = {
    (4, 2): ("0.7111", "0.7250", "0.7429", "0.7667"),
    (5, 2): ("0.7576", "0.7667", "0.7778", "0.7917"),
    (6, 2): ("0.7912", "0.7976", "0.8052", "0.8143"),
    (7, 2): ("0.8167", "0.8214", "0.8269", "0.8333"),
    (4, 3): ("0.6564", "0.6981", "0.7516", "0.8231"),
    (5, 3): ("0.7102", "0.7375", "0.7708", "0.8125"),
    (6, 3): ("0.7496", "0.7688", "0.7915", "0.8188"),
    (7, 3): ("0.7795", "0.7938", "0.8103", "0.8295"),
}

TABLE2_EXPECTED = {
    (3, 2): ("0.6000", "0.6429", "0.6667", "0.6667"),
    (5, 2): ("0.7143", "0.7576", "0.7500", "0.7667"),
    (7, 2): ("0.7778", "0.8167", "0.8000", "0.8214"),
    (3, 3): ("0.5000", "0.5786", "0.6250", "0.6500"),
    (5, 3): ("0.6250", "0.7102", "0.7000", "0.7375"),
    (7, 3): ("0.7000", "0.7795", "0.7500", "0.7938"),
}

# (seed r, seed t, widening x) grid shared by criteria 6, 8, and 10
GRID = [
    (rr, tt, x) for rr in range(1, 6) for tt in range(1, 4) for x in range(4)
]


def _run(number: int, label: str, limit_s: float, check) -> None:
    start = time.perf_counter()
    try:
        check()
    except AssertionError:
        elapsed = time.perf_counter() - start
        print(f"criterion {number}: FAIL {label} ({elapsed:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS {label} ({elapsed:.1f}s)")
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s"


@lru_cache(maxsize=None)
def _grid_instance(rr: int, tt: int, x: int):
    code = build_xlrc(rr, tt, x)
    p = code.params
    family = discover_family(code.H, p.r, p.t, p.x)
    return code, family


def test_criterion_1_rate_bound_grid():
    def check():
        grid = table1()
        pairs = list(TABLE1_EXPECTED)
        assert len(grid) == 8
        for (r, t), row in zip(pairs, grid):
            got = tuple(rep.decimal4 for rep in row)
            assert got == TABLE1_EXPECTED[(r, t)], (r, t, got)

    _run(1, "32-cell rate bound grid at 4 decimals", 1.0, check)


def test_criterion_2_rate_comparison_rows():
    def check():
        rows = table2()
        assert len(rows) == 6
        for row in rows:
            got = (
                decimal4(row.wzl_rate),
                decimal4(row.upper_x0),
                decimal4(row.construction_x1),
                decimal4(row.upper_x1),
            )
            assert got == TABLE2_EXPECTED[(row.r, row.t)], (row.r, row.t, got)

    _run(2, "24-cell rate comparison rows", 1.0, check)


def test_criterion_3_product_identity():
    def check():
        for r in range(1, 17):
            for t in range(1, 7):
                assert rate_product(r, t) == rate_upper(r, t, 0), (r, t)

    _run(3, "product form equals disjoint-case bound, r<=16 t<=6", 1.0, check)


def test_criterion_4_twelve_column_example():
    def check():
        code = build_xlrc(2, 2, 1, convention="complement")
        assert code.H == BitMatrix(XLRC_221_COMPLEMENT)
        assert rank(code.H) == 3
        assert code.params.k == 9
        assert code.params.rate == Fraction(3, 4)

    _run(4, "12-column worked example, bit-exact", 1.0, check)


def test_criterion_5_base_construction_suite():
    def check():
        from lrckit import check_recursion

        for m in range(2, 10):
            for t in range(1, m):
                code = build_wzl(m, t)
                n = comb(m, t)
                assert code.H.cols == n
                assert code.H.rows == comb(m, t - 1)
                assert rank(code.H) == comb(m - 1, t - 1)
                assert code.H.array.sum(axis=1).tolist() == [m - t + 1] * code.H.rows
                assert code.H.array.sum(axis=0).tolist() == [t] * n
                if 2 <= t <= m - 1:
                    assert check_recursion(m, t)
                if n <= 21:
                    assert min_distance(code.H) == t + 1, (m, t)

    _run(5, "base construction formulas, recursion, brute distance", 120.0, check)


def test_criterion_6_verification_grid():
    def check():
        for rr, tt, x in GRID:
            code, family = _grid_instance(rr, tt, x)
            p = code.params
            report = verify_family(code.H, family, p.r, p.t, p.x, deep=True)
            assert report.ok, (rr, tt, x, report.failures[:3])
            dim = p.k
            assert report.deep_checked == (dim <= 20), (rr, tt, x)

    _run(6, "discovery and verification across the 60-code grid", 300.0, check)


def test_criterion_7_union_bound_oracle():
    def check():
        from oracles import min_union_size

        from lrckit import n_lower

        for r in range(1, 7):
            for j in range(1, 4):
                for x in range(0, min(2, r) + 1):
                    assert n_lower(r, j, x) == min_union_size(r, j, x), (r, j, x)

    _run(7, "union lower bound equals exhaustive minimum", 120.0, check)


def test_criterion_8_coloring_bound():
    def check():
        for rr, tt, x in GRID:
            code, family = _grid_instance(rr, tt, x)
            p = code.params
            exact = exhaustive_expected_fraction(build_graph(family), family)
            f = f_value(p.r, p.t, p.x)
            assert exact >= f, (rr, tt, x)
            # disjoint sets of size exactly r: every union of j sets has size jr
            if x == 0:
                assert exact == f, (rr, tt, x)

        mc_cases = []
        for rr, tt in ((2, 2), (3, 2)):
            code = build_xlrc(rr, tt, 0)
            mc_cases.append((code.H, (rr, tt, 0)))
        example = build_xlrc(2, 2, 1, convention="complement")
        mc_cases.append((example.H, (5, 2, 1)))
        for h, (r, t, x) in mc_cases:
            family = discover_family(h, r, t, x)
            graph = build_graph(family)
            stats = monte_carlo_colored_fraction(graph, family, 100_000, seed=0)
            threshold = float(f_value(r, t, x))
            assert stats.mean >= threshold - 3 * stats.stderr, (r, t, x)
            exact = exhaustive_expected_fraction(graph, family)
            assert abs(stats.mean - exact) <= 4 * stats.stderr, (r, t, x)
            assert stats.walk_failures == 0, (r, t, x)

    _run(8, "colored fraction exact and sampled bounds", 180.0, check)


def test_criterion_9_tight_point():
    def check():
        assert map_params(1, 2, 1).rate == rate_upper(3, 2, 1) == Fraction(2, 3)

    _run(9, "construction meets the bound at (3, 2, 1)", 1.0, check)


def test_criterion_10_repair_sweep():
    def check():
        for rr, tt, x in GRID:
            code, family = _grid_instance(rr, tt, x)
            p = code.params
            width = x + 1
            for s in range(100):
                rng = np.random.default_rng((11, s))
                message = rng.integers(0, 2, size=p.k, dtype=np.uint8)
                word = systematic_encode(code.H, message)
                for coord in range(1, p.n + 1):
                    trace = simulate_repair(code.H, family, word, coord)
                    truth = int(word[coord - 1])
                    assert all(v == truth for v in trace.recovered_values)
                    max_load = max(trace.helper_load.values())
                    if x == 0:
                        assert max_load == 1
                    elif p.t >= 2:
                        block = (coord - 1) // width
                        siblings = {
                            block * width + o + 1 for o in range(width)
                        } - {coord}
                        for sib in siblings:
                            assert trace.helper_load[sib] == p.t
                        assert max_load == p.t

    _run(10, "repair success and helper load across the grid", 120.0, check)
