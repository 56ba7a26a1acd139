import math

import numpy as np
import pytest

from lrckit import (
    BitMatrix,
    DimensionTooLarge,
    InvalidParams,
    kronecker,
    min_distance,
    nullspace_basis,
    rank,
    recovery_parity_word,
    rref,
    solve,
)
from lrckit.gf2 import iter_codeword_blocks
from known_matrices import WZL_42_INCIDENCE


def _codewords(h):
    return np.vstack(list(iter_codeword_blocks(h)))


def test_bitmatrix_basic_properties():
    m = BitMatrix(WZL_42_INCIDENCE)
    assert m.rows == 4
    assert m.cols == 6
    assert m[0, 0] == 1
    assert m[0, 3] == 0
    assert m.row_support(1) == (0, 3, 4)
    assert m.column_support(0) == (0, 1)
    assert repr(m) == "BitMatrix(4x6)"


def test_bitmatrix_rejects_bad_input():
    with pytest.raises(ValueError):
        BitMatrix([[0, 2]])
    with pytest.raises(ValueError):
        BitMatrix([0, 1])
    with pytest.raises(ValueError):
        BitMatrix(np.zeros((2, 0), dtype=np.uint8))


def test_bitmatrix_is_immutable():
    m = BitMatrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        m.array[0, 0] = 0


def test_bitmatrix_equality_and_hash():
    a = BitMatrix([[1, 0], [0, 1]])
    b = BitMatrix.identity(2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != BitMatrix([[1, 0]])
    assert a != BitMatrix.zeros(2, 2)


def test_factories():
    assert BitMatrix.ones(2, 3).array.sum() == 6
    assert BitMatrix.zeros(3, 2).array.sum() == 0
    eye = BitMatrix.identity(3)
    assert eye.row_support(1) == (1,)


def test_rref_shape_and_idempotence():
    m = BitMatrix(WZL_42_INCIDENCE)
    reduced, pivots = rref(m)
    assert len(pivots) == 3
    for i, p in enumerate(pivots):
        # pivot columns carry a single one, in the pivot row
        assert reduced.column_support(p) == (i,)
    again, pivots2 = rref(reduced)
    assert again == reduced
    assert pivots2 == pivots


def test_rank_known_values():
    assert rank(BitMatrix(WZL_42_INCIDENCE)) == 3
    assert rank(BitMatrix.identity(5)) == 5
    assert rank(BitMatrix.ones(3, 7)) == 1
    assert rank(BitMatrix.zeros(2, 3)) == 0


def test_rank_plus_nullity_is_width():
    rng = np.random.default_rng(21)
    for _ in range(15):
        a = BitMatrix(rng.integers(0, 2, size=(4, 9), dtype=np.uint8))
        assert rank(a) + nullspace_basis(a).rows == a.cols


def test_rank_matches_transpose():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.integers(0, 2, size=(5, 8), dtype=np.uint8)
        assert rank(BitMatrix(a)) == rank(BitMatrix(a.T))


def test_nullspace_is_orthogonal_complement():
    m = BitMatrix(WZL_42_INCIDENCE)
    basis = nullspace_basis(m)
    assert basis.rows == m.cols - rank(m)
    product = (m.array @ basis.array.T) & 1
    assert not product.any()
    assert rank(basis) == basis.rows


def test_nullspace_basis_is_systematic_on_free_columns():
    # The basis is the unique one with identity on the non-pivot columns; a
    # column is a pivot when it raises the rank of the columns before it.
    rng = np.random.default_rng(29)
    for cols in (1, 7, 64, 130, 300):
        for _ in range(4):
            a = rng.integers(0, 2, size=(rng.integers(1, 12), cols), dtype=np.uint8)
            ranks = [0] + [rank(BitMatrix(a[:, : c + 1])) for c in range(cols)]
            free = [c for c in range(cols) if ranks[c + 1] == ranks[c]]
            basis = nullspace_basis(a).array
            assert basis.shape == (len(free), cols)
            assert np.array_equal(basis[:, free], np.eye(len(free), dtype=np.uint8))
            assert not ((a.astype(np.int64) @ basis.T) & 1).any()


def test_nullspace_of_full_rank_matrix_is_empty():
    basis = nullspace_basis(BitMatrix.identity(4))
    assert basis.rows == 0
    assert basis.cols == 4


def test_nullspace_of_single_parity_row():
    basis = nullspace_basis(BitMatrix([[1, 1]]))
    assert basis == BitMatrix([[1, 1]])


def test_kronecker_duplicates_columns():
    m = BitMatrix([[1, 0], [0, 1]])
    wide = kronecker(m, BitMatrix.ones(1, 3))
    assert wide.cols == 6
    assert wide.row_support(0) == (0, 1, 2)
    assert wide.row_support(1) == (3, 4, 5)
    assert wide == BitMatrix([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]])


def test_kronecker_with_single_one_is_identity_map():
    m = BitMatrix(WZL_42_INCIDENCE)
    assert kronecker(m, BitMatrix.ones(1, 1)) == m


def test_iter_codeword_blocks_small_anchors():
    words = _codewords(BitMatrix([[1, 1, 1]]))
    got = {tuple(map(int, w)) for w in words}
    assert got == {(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}
    only_zero = _codewords(BitMatrix.identity(2))
    assert {tuple(map(int, w)) for w in only_zero} == {(0, 0)}


def test_iter_codeword_blocks_is_the_nullspace():
    m = BitMatrix(WZL_42_INCIDENCE)
    arr = _codewords(m)
    assert len(arr) == 8
    assert not ((m.array @ arr.T) & 1).any()
    # closed under addition: XOR of any two rows is again a row
    rows = {tuple(map(int, w)) for w in arr}
    for u in arr:
        for v in arr:
            assert tuple(map(int, (u ^ v))) in rows


def test_enumeration_order_crosses_block_boundary():
    # Dimension 17 spans two 2**16-row blocks.
    rng = np.random.default_rng(17)
    h = BitMatrix(rng.integers(0, 2, size=(7, 24), dtype=np.uint8))
    basis = nullspace_basis(h).array.astype(np.int64)
    dim = basis.shape[0]
    assert dim == 17
    messages = (np.arange(1 << dim)[:, None] >> np.arange(dim - 1, -1, -1)) & 1
    expected = (messages @ basis) & 1
    assert np.array_equal(_codewords(h), expected)
    assert min_distance(h) == expected[1:].sum(axis=1).min()


def test_min_distance_known_codes():
    assert min_distance(BitMatrix(WZL_42_INCIDENCE)) == 3
    assert min_distance(BitMatrix.identity(3)) == math.inf
    # single parity check on 4 bits: distance 2
    assert min_distance(BitMatrix.ones(1, 4)) == 2


def test_min_distance_matches_column_oracle():
    from oracles import min_distance_by_columns

    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.integers(0, 2, size=(3, 7), dtype=np.uint8)
        m = BitMatrix(a)
        got = min_distance(m)
        expect = min_distance_by_columns(m, cap=7)
        if expect is None:
            assert got == math.inf
        else:
            assert got == expect


def test_enumeration_cap_enforced():
    wide = BitMatrix.ones(1, 30)
    with pytest.raises(DimensionTooLarge):
        _codewords(wide)
    with pytest.raises(DimensionTooLarge):
        min_distance(wide)


def test_solve_consistent_system():
    m = BitMatrix(WZL_42_INCIDENCE)
    rng = np.random.default_rng(5)
    x = rng.integers(0, 2, size=6, dtype=np.uint8)
    b = (m.array @ x) & 1
    got = solve(m, b)
    assert got is not None
    assert not (((m.array @ got) & 1) ^ b).any()


def test_solve_inconsistent_system():
    m = BitMatrix([[1, 1], [1, 1]])
    assert solve(m, np.array([1, 0], dtype=np.uint8)) is None


def test_recovery_parity_word_from_row():
    m = BitMatrix(WZL_42_INCIDENCE)
    # row 0 has support {0,1,2}: column 0 is recoverable from {1,2}
    w = recovery_parity_word(m, 0, (1, 2))
    assert w is not None
    assert w[0] == 1
    assert set(np.flatnonzero(w)) <= {0, 1, 2}
    basis = nullspace_basis(m)
    assert not ((basis.array @ w) & 1).any()


def test_recovery_parity_word_needs_row_combination():
    # the sum of rows 0 and 1 is the only parity word confined to the
    # symmetric difference of their supports
    m = BitMatrix(WZL_42_INCIDENCE)
    w = recovery_parity_word(m, 1, (2, 3, 4))
    assert w is not None
    assert w[1] == 1
    assert set(np.flatnonzero(w)) <= {1, 2, 3, 4}


def test_recovery_parity_word_absent():
    m = BitMatrix(WZL_42_INCIDENCE)
    assert recovery_parity_word(m, 0, (1,)) is None
    assert recovery_parity_word(m, 0, ()) is None


def test_recovery_parity_word_rejects_helpers_out_of_range():
    m = BitMatrix(WZL_42_INCIDENCE)
    # -1 would otherwise wrap to the last column; 6 is one past the end.
    for helpers in ((1, 2, -1), (1, 2, 6), (-6,)):
        with pytest.raises(InvalidParams):
            recovery_parity_word(m, 0, helpers)
