from fractions import Fraction
from math import comb

import numpy as np
import pytest

from lrckit import (
    BitMatrix,
    InvalidParams,
    build_wzl,
    check_recursion,
    complement_columns,
    map_params,
    rank,
)
from known_matrices import WZL_32_INCIDENCE, WZL_42_COMPLEMENT, WZL_42_INCIDENCE
from oracles import min_distance


def test_known_incidence_matrices():
    assert build_wzl(4, 2).H == BitMatrix(WZL_42_INCIDENCE)
    assert build_wzl(3, 2).H == BitMatrix(WZL_32_INCIDENCE)


def test_row_and_column_labels_are_lexicographic():
    code = build_wzl(4, 2)
    assert code.row_labels == ((1,), (2,), (3,), (4,))
    assert code.col_labels == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
    assert code.convention == "incidence"


def test_complement_convention():
    code = complement_columns(build_wzl(4, 2))
    assert code.H == BitMatrix(WZL_42_COMPLEMENT)
    assert code.convention == "complement"
    assert code.col_labels == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))


def test_complement_is_an_involution():
    code = build_wzl(5, 2)
    twice = complement_columns(complement_columns(code))
    assert twice.H == code.H
    assert twice.convention == "incidence"


def test_degenerate_shapes():
    allones_row = build_wzl(5, 1)
    assert allones_row.H == BitMatrix(np.ones((1, 5), dtype=np.uint8))
    tall = build_wzl(4, 4)
    assert tall.H == BitMatrix(np.ones((4, 1), dtype=np.uint8))


def test_rejects_bad_parameters():
    with pytest.raises(InvalidParams):
        build_wzl(4, 0)
    with pytest.raises(InvalidParams):
        build_wzl(4, 5)
    with pytest.raises(InvalidParams):
        build_wzl(0, 0)


@pytest.mark.parametrize("m,t", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (6, 3)])
def test_recursive_block_structure(m, t):
    assert check_recursion(m, t)


def test_recursion_rejects_boundary_cases():
    with pytest.raises(InvalidParams):
        check_recursion(4, 1)
    with pytest.raises(InvalidParams):
        check_recursion(4, 4)


def test_row_dependency():
    # the four rows of the 4x6 matrix sum to zero, hence rank 3
    code = build_wzl(4, 2)
    total = code.H.array.sum(axis=0) % 2
    assert not total.any()
    assert rank(code.H) == 3


@pytest.mark.parametrize("m,t", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 2)])
def test_rank_formula(m, t):
    assert rank(build_wzl(m, t).H) == comb(m - 1, t - 1)


def test_wzl_params_anchor():
    p = map_params(2, 2, 0)
    assert (p.n, p.k, p.r, p.t, p.x, p.d) == (6, 3, 2, 2, 0, 3)
    assert p.rate == Fraction(1, 2)


def test_wzl_params_rate_anchors():
    assert map_params(3, 2, 0).rate == Fraction(3, 5)
    assert map_params(7, 3, 0).rate == Fraction(7, 10)


@pytest.mark.parametrize("r,t", [(2, 2), (3, 2), (1, 3), (2, 3), (1, 2)])
def test_distance_matches_brute_force(r, t):
    m = r + t
    code = build_wzl(m, t)
    assert min_distance(code.H) == t + 1
    p = map_params(r, t, 0)
    assert p.n == code.H.cols
    assert p.k == code.H.cols - rank(code.H)


def test_wzl_params_rejects_bad_input():
    with pytest.raises(InvalidParams):
        map_params(0, 2, 0)
    with pytest.raises(InvalidParams):
        map_params(2, 0, 0)
