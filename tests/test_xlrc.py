from fractions import Fraction
from math import comb

import numpy as np
import pytest

from lrckit import (
    BitMatrix,
    InvalidParams,
    build_xlrc,
    canonical_family,
    map_params,
    rank,
    rate_upper,
    verify_family,
)
from known_matrices import XLRC_221_COMPLEMENT
from oracles import min_distance

# The acceptance grid of (seed r, seed t, widening x), plus two seeds with
# t much larger than r.
CLOSED_FORM_CODES = [
    (rr, tt, x) for rr in range(1, 6) for tt in range(1, 4) for x in range(4)
] + [(2, 6, 0), (2, 7, 0)]


def test_map_params_anchors():
    p = map_params(1, 2, 1)
    assert (p.n, p.k, p.r, p.t, p.x) == (6, 4, 3, 2, 1)
    assert p.rate == Fraction(2, 3)

    p = map_params(2, 2, 1)
    assert (p.n, p.k, p.r, p.t, p.x) == (12, 9, 5, 2, 1)
    assert p.rate == Fraction(3, 4)

    p = map_params(3, 3, 1)
    assert (p.n, p.k, p.r, p.t, p.x) == (40, 30, 7, 3, 1)
    assert p.rate == Fraction(3, 4)


def test_map_params_x_zero_is_plain_wzl():
    p = map_params(4, 2, 0)
    assert (p.n, p.k, p.r, p.t, p.x) == (15, 10, 4, 2, 0)
    assert p.rate == Fraction(2, 3)


def test_map_params_more_anchors():
    p = map_params(2, 3, 1)
    assert (p.n, p.r, p.t, p.x) == (20, 5, 3, 1)
    assert p.rate == Fraction(7, 10)

    p = map_params(3, 2, 1)
    assert (p.n, p.r, p.t, p.x) == (20, 7, 2, 1)
    assert p.rate == Fraction(4, 5)


def test_rate_closed_forms():
    for seed_r in range(1, 8):
        for seed_t in range(1, 5):
            for x in range(4):
                p = map_params(seed_r, seed_t, x)
                m = seed_r + seed_t
                assert p.rate == 1 - Fraction(seed_t, m * (x + 1))
                extra = (p.t - 1) * p.x
                assert p.rate == Fraction(p.r + extra, p.r + p.t + extra)


def test_rate_never_exceeds_availability_bound():
    for seed_r in range(1, 8):
        for seed_t in range(1, 5):
            for x in range(4):
                p = map_params(seed_r, seed_t, x)
                bound = rate_upper(p.r, p.t, p.x)
                assert p.rate <= bound
                if seed_r == 1 and seed_t == 2:
                    # this family meets the bound at every overlap level
                    assert p.rate == bound


def test_known_twelve_column_matrix():
    code = build_xlrc(2, 2, 1, convention="complement")
    assert code.H == BitMatrix(XLRC_221_COMPLEMENT)
    assert rank(code.H) == 3
    assert code.params.k == 9
    assert code.params.rate == Fraction(3, 4)
    assert code.params.d == 2


def test_incidence_and_complement_agree_on_parameters():
    a = build_xlrc(2, 2, 1)
    b = build_xlrc(2, 2, 1, convention="complement")
    assert a.params == b.params
    assert a.H != b.H


@pytest.mark.parametrize("rr,tt,x", [(1, 2, 1), (2, 2, 2), (1, 3, 1), (1, 2, 3)])
def test_distance_two_with_duplicate_columns(rr, tt, x):
    code = build_xlrc(rr, tt, x)
    assert code.params.d == 2
    assert min_distance(code.H) == 2


@pytest.mark.parametrize("rr,tt", [(2, 2), (3, 2), (2, 3)])
def test_distance_without_widening(rr, tt):
    code = build_xlrc(rr, tt, 0)
    assert code.params.d == tt + 1


@pytest.mark.parametrize("rr,tt,x", CLOSED_FORM_CODES)
def test_distance_closed_form(rr, tt, x):
    code = build_xlrc(rr, tt, x)
    h = code.H.array
    d = code.params.d
    assert d == (2 if x else tt + 1)
    assert h.any(axis=0).all()
    witness = np.zeros(h.shape[1], dtype=np.uint8)
    if x:
        # a column and its first sibling copy
        witness[[0, 1]] = 1
    else:
        # the t + 1 columns labelled by the t-subsets of {1..t+1}
        ground = set(range(1, tt + 2))
        for j, label in enumerate(code.base.col_labels):
            witness[j] = set(label) <= ground
    assert not ((h @ witness) & 1).any()
    assert int(witness.sum()) == d
    if code.params.k <= 20:
        assert min_distance(code.H) == d


def test_rank_preserved_by_widening():
    for x in range(4):
        code = build_xlrc(3, 2, x)
        m = 3 + 2
        assert rank(code.H) == comb(m - 1, 1)
        assert code.H.cols == (x + 1) * comb(m, 2)


def test_canonical_family_known_sets():
    code = build_xlrc(2, 2, 1, convention="complement")
    family = canonical_family(code)
    assert family.n == 12
    assert family.sets_by_coordinate[0] == (
        frozenset({2, 5, 6, 9, 10}),
        frozenset({2, 3, 4, 7, 8}),
    )
    for sets in family.sets_by_coordinate:
        assert len(sets) == 2
        assert all(len(s) == 5 for s in sets)


@pytest.mark.parametrize("rr,tt,x", [(1, 2, 1), (2, 2, 1), (2, 2, 0), (1, 3, 2)])
def test_canonical_family_verifies(rr, tt, x):
    code = build_xlrc(rr, tt, x)
    family = canonical_family(code)
    p = code.params
    report = verify_family(code.H, family, p.r, p.t, p.x, deep=True)
    assert report.ok
    assert report.deep_checked
    assert report.failures == ()


def test_rejects_bad_parameters():
    with pytest.raises(InvalidParams):
        build_xlrc(0, 2, 1)
    with pytest.raises(InvalidParams):
        build_xlrc(2, 0, 1)
    with pytest.raises(InvalidParams):
        build_xlrc(2, 2, -1)
    with pytest.raises(InvalidParams):
        build_xlrc(2, 2, 1, convention="mirror")
