from fractions import Fraction

import pytest

from lrckit import (
    InvalidParams,
    bound_report,
    decimal4,
    f_value,
    n_lower,
    n_upper,
    rate_product,
    rate_upper,
    table1,
    table2,
)
from oracles import min_union_size

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


def test_union_upper_bound_is_linear():
    for r in range(2, 8):
        for j in range(1, 4):
            assert n_upper(r, j, 2) == j * r
    assert n_upper(4, 2, 1) == 8
    assert n_upper(7, 3, 3) == 21
    for r in range(3, 9):
        assert n_upper(r, 1, 3) == r


def test_union_lower_bound_anchors():
    assert n_lower(4, 2, 1) == 7
    assert n_lower(4, 2, 0) == 8
    assert n_lower(5, 3, 1) == 12


@pytest.mark.parametrize("x", [0, 1, 2])
def test_union_lower_bound_matches_oracle(x):
    for r in range(max(1, x), 7):
        for j in range(1, 4):
            assert n_lower(r, j, x) == min_union_size(r, j, x)


def test_union_bounds_coincide_when_disjoint():
    for r in range(1, 7):
        for j in range(1, 4):
            assert n_lower(r, j, 0) == n_upper(r, j, 0)


def test_union_lower_never_exceeds_upper():
    for r in range(1, 8):
        for j in range(1, 5):
            for x in range(0, r + 1):
                lo, hi = n_lower(r, j, x), n_upper(r, j, x)
                assert lo <= hi
                assert (lo == hi) == (x == 0 or j == 1)


def test_f_value_anchors():
    assert f_value(4, 2, 0) == Fraction(13, 45)
    assert f_value(2, 2, 0) == Fraction(7, 15)
    assert f_value(3, 2, 1) == Fraction(1, 3)
    assert f_value(5, 2, 1) == Fraction(7, 30)
    assert f_value(4, 3, 1) == Fraction(157, 520)
    assert f_value(7, 3, 3) == Fraction(15, 88)


def test_f_value_single_availability():
    for r in range(1, 9):
        for x in range(0, min(4, r + 1)):
            assert f_value(r, 1, x) == Fraction(1, r + 1)


def test_rate_upper_anchors():
    assert rate_upper(3, 2, 1) == Fraction(2, 3)
    assert rate_upper(7, 3, 3) == Fraction(73, 88)
    assert rate_upper(4, 2, 0) == Fraction(32, 45)
    assert rate_upper(6, 2, 2) == Fraction(62, 77)


def test_rate_upper_increases_with_overlap():
    for r, t in ((4, 2), (5, 3), (7, 2)):
        values = [rate_upper(r, t, x) for x in range(4)]
        assert values == sorted(values)
        assert len(set(values)) == len(values)


def test_product_identity():
    for r in range(1, 17):
        for t in range(1, 7):
            assert rate_product(r, t) == rate_upper(r, t, 0)


def test_product_anchors():
    assert rate_product(4, 2) == Fraction(32, 45)
    assert rate_product(4, 3) == Fraction(384, 585)
    for r in range(1, 9):
        assert rate_product(r, 1) == Fraction(r, r + 1)


def test_decimal4_rounding():
    assert decimal4(Fraction(32, 45)) == "0.7111"
    assert decimal4(Fraction(1)) == "1.0000"
    assert decimal4(Fraction(5, 8)) == "0.6250"
    # ties round to even in the fourth decimal
    assert decimal4(Fraction(25, 20000)) == "0.0012"
    assert decimal4(Fraction(375, 20000)) == "0.0188"


def test_decimal4_negative_values():
    # A negative value is its magnitude, rounded the same way, after a "-".
    assert decimal4(Fraction(-1, 2)) == "-0.5000"
    assert decimal4(Fraction(-23, 336)) == "-0.0685"
    assert decimal4(Fraction(-3, 2)) == "-1.5000"
    # ties round the magnitude to even in the fourth decimal
    assert decimal4(Fraction(-25, 20000)) == "-0.0012"
    assert decimal4(Fraction(-375, 20000)) == "-0.0188"
    assert decimal4(f_value(1, 4, 1)) == "-0.5000"


def test_bound_report_structure():
    report = bound_report(3, 2, 1)
    assert report.n_upper_by_j == (3, 6)
    assert report.n_lower_by_j == (3, 5)
    assert report.f == Fraction(1, 3)
    assert report.rate_upper == Fraction(2, 3)
    assert report.rate_product_x0 is None
    assert report.decimal4 == "0.6667"


def test_bound_report_exposes_product_at_zero_overlap():
    report = bound_report(4, 2, 0)
    assert report.rate_product_x0 == report.rate_upper


def test_table1_cells():
    grid = table1()
    pairs = [(4, 2), (5, 2), (6, 2), (7, 2), (4, 3), (5, 3), (6, 3), (7, 3)]
    assert len(grid) == 8
    for (r, t), row in zip(pairs, grid):
        expected = TABLE1_EXPECTED[(r, t)]
        assert tuple(rep.decimal4 for rep in row) == expected
        for x, rep in enumerate(row):
            assert (rep.r, rep.t, rep.x) == (r, t, x)


def test_table2_cells():
    rows = table2()
    assert len(rows) == 6
    for row in rows:
        expected = TABLE2_EXPECTED[(row.r, row.t)]
        got = (
            decimal4(row.wzl_rate),
            decimal4(row.upper_x0),
            decimal4(row.construction_x1),
            decimal4(row.upper_x1),
        )
        assert got == expected
        assert row.wzl_rate <= row.upper_x0
        assert row.construction_x1 <= row.upper_x1


def test_rejects_bad_parameters():
    with pytest.raises(InvalidParams):
        f_value(0, 2, 0)
    with pytest.raises(InvalidParams):
        f_value(4, 0, 0)
    with pytest.raises(InvalidParams):
        f_value(4, 2, -1)
    with pytest.raises(InvalidParams):
        f_value(4, 2, 5)
    with pytest.raises(InvalidParams):
        n_lower(4, 0, 1)
