import math
from collections import Counter

import numpy as np
import pytest

from lrckit import (
    BitMatrix,
    DimensionTooLarge,
    InvalidParams,
    build_xlrc,
    canonical_family,
    nullspace_basis,
    rank,
    recovery_parity_word,
    rref,
    solve,
)
from lrckit.gf2 import iter_codeword_blocks
from known_matrices import WZL_42_INCIDENCE
from oracles import (
    min_distance,
    parity_word_by_row_loop,
    rref_by_column_loop,
    solve_by_pivot_limit,
)


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


def _rank_deficient_inputs():
    """Matrices with more rows than rank: trailing zero rows, repeated rows,
    low-rank products, a row-mixed and column-permuted xlrc(5,3,3) (28x224,
    rank 21), and tall augmented systems shaped like recovery_parity_word's."""
    rng = np.random.default_rng(53)
    base = rng.integers(0, 2, (6, 40), dtype=np.uint8)
    yield np.vstack([base, np.zeros((3, 40), dtype=np.uint8)])
    yield np.vstack([base, base[::-1], base[2:4]])
    for _ in range(20):
        rows, cols = rng.integers(2, 30, size=2)
        inner = rng.integers(1, rows)
        yield (rng.integers(0, 2, (rows, inner)) @ rng.integers(0, 2, (inner, cols))) % 2
    code = build_xlrc(5, 3, 3)
    rows = code.H.rows
    mixing = np.tril(rng.integers(0, 2, (rows, rows)), -1) + np.eye(rows, dtype=int)
    a = ((mixing @ code.H.array) % 2)[:, rng.permutation(code.H.cols)]
    yield a
    family = canonical_family(code).sets_by_coordinate
    for target in rng.choice(code.H.cols, size=6, replace=False):
        helpers = sorted(family[target][0])[1:] if target % 2 else family[target][0]
        allowed = np.zeros(code.H.cols, dtype=bool)
        allowed[[e - 1 for e in helpers]] = True
        allowed[target] = True
        system = np.vstack([a[:, ~allowed].T, a[:, target][None, :]])
        rhs = np.zeros((system.shape[0], 1), dtype=a.dtype)
        rhs[-1] = 1
        yield np.hstack([system, rhs])


def test_rref_matches_column_loop_on_rank_deficient_inputs():
    stopped_early = 0
    for a in _rank_deficient_inputs():
        reduced, pivots = rref(a)
        want, want_pivots = rref_by_column_loop(a)
        assert pivots == want_pivots
        assert np.array_equal(reduced.array, want)
        assert len(pivots) < a.shape[0]
        stopped_early += bool(pivots) and pivots[-1] < a.shape[1] - 1
    assert stopped_early > 5


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


@pytest.mark.parametrize(
    "kind",
    # The helpers below are contiguous, so a range can give them.
    [list, tuple, np.array, lambda h: range(h[0], h[-1] + 1), lambda h: (j for j in h)],
    ids=["list", "tuple", "array", "range", "generator"],
)
@pytest.mark.parametrize(
    "h,target,helpers",
    [
        # Row 0 of xlrc(2,2,1) has support 0..5.
        (build_xlrc(2, 2, 1).H, 0, [1, 2, 3, 4, 5]),
        # Only rows 0 + 1 fit, so the word comes from the solve.
        (BitMatrix(WZL_42_INCIDENCE), 1, [2, 3, 4]),
    ],
    ids=["single-row", "solve"],
)
def test_recovery_parity_word_reads_helpers_once(kind, h, target, helpers):
    """A one-shot iterable of helpers gives the word a list gives: the range
    check must not use it up."""
    expected = recovery_parity_word(h, target, helpers)
    assert expected is not None
    assert recovery_parity_word(h, target, kind(helpers)).tolist() == expected.tolist()


def test_recovery_parity_word_rejects_helpers_out_of_range():
    m = BitMatrix(WZL_42_INCIDENCE)
    # -1 would otherwise wrap to the last column; 6 is one past the end.
    for helpers in ((1, 2, -1), (1, 2, 6), (-6,)):
        with pytest.raises(InvalidParams):
            recovery_parity_word(m, 0, helpers)


def _mixed_matrix(n, seed, rows=12, weight=4):
    """Sparse rows on n columns, mixed by a unit lower-triangular matrix (so
    the first rows stay sparse) and column-permuted."""
    rng = np.random.default_rng((seed, n))
    base = np.zeros((rows, n), dtype=np.int64)
    for k in range(rows):
        base[k, rng.choice(n, size=weight, replace=False)] = 1
    lower = rng.integers(0, 2, (rows, rows)) & rng.integers(0, 2, (rows, rows))
    mixing = np.tril(lower, -1) + np.eye(rows, dtype=np.int64)
    return BitMatrix(((mixing @ base) % 2)[:, rng.permutation(n)])


def _same_word(got, want, rows):
    """Assert recovery_parity_word matches the oracle; name the path taken."""
    if want is None:
        assert got is None
        return "none"
    assert got is not None and got.dtype == np.uint8
    assert np.array_equal(got, want)
    return "row" if got.tobytes() in rows else "combination"


@pytest.mark.parametrize("n", [63, 64, 65, 224])
def test_recovery_parity_word_matches_row_loop_oracle(n):
    h = _mixed_matrix(n, seed=8)
    a = h.array
    rows = {row.tobytes() for row in a}
    rng = np.random.default_rng((9, n))
    paths = Counter()
    for _ in range(200):
        target = int(rng.integers(n))
        word = np.bitwise_xor.reduce(a[rng.choice(h.rows, size=rng.integers(1, 4), replace=False)])
        through = np.flatnonzero(a[:, target])
        if not word[target] and through.size:
            word = word ^ a[rng.choice(through)]
        helpers = [int(j) for j in np.flatnonzero(word) if j != target]
        if helpers and rng.integers(3) == 0:
            helpers.pop(int(rng.integers(len(helpers))))
        elif rng.integers(2):
            helpers += [int(j) for j in rng.choice(n, size=2) if j != target]
        got = recovery_parity_word(h, target, helpers)
        paths[_same_word(got, parity_word_by_row_loop(h, target, helpers), rows)] += 1
    assert set(paths) == {"none", "row", "combination"}


def _cut(sets_by_coordinate, rng):
    """Drop one member of the first set at a third of the coordinates."""
    sets = [list(s) for s in sets_by_coordinate]
    for i in rng.choice(len(sets), size=max(1, len(sets) // 3), replace=False):
        members = sorted(sets[i][0])
        sets[i][0] = frozenset(members) - {members[rng.integers(len(members))]}
    return sets


@pytest.mark.parametrize(
    "spec",
    [(2, 2, 1, "complement"), (1, 3, 1, "incidence"), (4, 3, 0, "incidence"),
     (5, 3, 3, "incidence")],
)
def test_recovery_parity_word_matches_oracle_on_families(spec):
    code = build_xlrc(*spec[:3], convention=spec[3])
    rows = code.H.rows
    rng = np.random.default_rng((10, *spec[:3]))
    # A seeded row mixing keeps the code but hides most sets from single rows.
    mixing = np.tril(rng.integers(0, 2, (rows, rows)), -1) + np.eye(rows, dtype=int)
    h = BitMatrix((mixing @ code.H.array) % 2)
    words = {row.tobytes() for row in h.array}
    canonical = canonical_family(code).sets_by_coordinate
    cut = _cut(canonical, rng)
    for sets_by_coordinate, expected in ((canonical, {"row", "combination"}), (cut, {"none"})):
        paths = Counter()
        for i, sets in enumerate(sets_by_coordinate):
            for s in sets:
                helpers = [e - 1 for e in s]
                got = recovery_parity_word(h, i, helpers)
                paths[_same_word(got, parity_word_by_row_loop(h, i, helpers), words)] += 1
        assert expected <= set(paths)


def test_solve_matches_pivot_limited_oracle():
    rng = np.random.default_rng(11)
    seen = Counter()
    for _ in range(300):
        rows, inner, cols = rng.integers(1, 12, size=3)
        # A product of random factors, so many systems are rank-deficient.
        a = (rng.integers(0, 2, (rows, inner)) @ rng.integers(0, 2, (inner, cols))) % 2
        if rng.integers(2):
            b = (a @ rng.integers(0, 2, cols)) % 2
        else:
            b = rng.integers(0, 2, rows)
        got = solve(a, b)
        want = solve_by_pivot_limit(a, b)
        if want is None:
            assert got is None
        else:
            assert got is not None and np.array_equal(got, want)
            assert np.array_equal((a @ got) % 2, b)
        seen[want is None] += 1
    assert seen[True] and seen[False]
