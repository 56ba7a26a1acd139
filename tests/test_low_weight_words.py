"""The low-weight dual words that discovery searches, against the oracle
that XORs every combination its mode allows and filters afterwards.

bounded-combos XORs only the pairs and triples of rows whose weight, or
lower bound on it from the rows' intersection counts, is at most r + 1;
dual-enum enumerates the sums of at most r + 1 reduced rows. Either must
give the oracle's word set, compared as sets of packed rows, and hold at
most about one block of words beyond arrays the size of its input."""

import tracemalloc

import numpy as np
import pytest

from lrckit import BitMatrix, build_xlrc, rank
from lrckit import gf2, verifier
from lrckit.verifier import (
    AUTO,
    BOUNDED_COMBOS,
    DUAL_ENUM,
    DUAL_ENUM_RANK_CAP,
    resolve_search_mode,
)
from oracles import low_weight_words_unpruned
from test_parity_words import _bench_workloads


def _check(h, r, mode):
    """Assert the package's words equal the oracle's; return them."""
    got = {row.tobytes() for row in verifier._low_weight_words(h, r, mode)}
    assert got == low_weight_words_unpruned(h, r, mode), (r, mode)
    return got


def _seeded(n, seed, mixing, rows=14):
    """``rows`` rows of weight 4 on n columns, mixed by a sparse unit lower
    triangular matrix (sums of a few rows, so triples can be light) or by a
    dense invertible one, and column-permuted."""
    rng = np.random.default_rng(seed)
    base = np.zeros((rows, n), dtype=np.int64)
    for k in range(rows):
        base[k, rng.choice(n, size=4, replace=False)] = 1
    eye = np.eye(rows, dtype=np.int64)
    lower = np.tril(rng.integers(0, 2, (rows, rows)) & rng.integers(0, 2, (rows, rows)), -1)
    if mixing == "sparse":
        mix = lower + eye
    else:
        mix = (lower + eye) @ (np.triu(rng.integers(0, 2, (rows, rows)), 1) + eye)
    return BitMatrix(((mix @ base) % 2)[:, rng.permutation(n)])


@pytest.mark.parametrize("mixing", ["sparse", "dense"])
@pytest.mark.parametrize("n", [63, 64, 65, 105, 200])
def test_pruned_words_match_oracle_on_seeded_matrices(n, mixing):
    # r + 1 runs from 2 to 12, over the weights of the light pairs and
    # triples; at rank 14 dual-enum's sums of at most r + 1 reduced rows
    # run from a few hundred to nearly the whole row space. Past two limbs
    # (n = 200) bounded-combos screens each combination on its first 128
    # columns before XORing it whole.
    h = _seeded(n, n, mixing)
    assert rank(h) == 14
    lengths = {BOUNDED_COMBOS: set(), DUAL_ENUM: set()}
    for r in range(1, 12):
        for mode in lengths:
            lengths[mode].add(len(_check(h, r, mode)))
    assert len(lengths[DUAL_ENUM]) > 2
    assert mixing == "dense" or len(lengths[BOUNDED_COMBOS]) > 2


@pytest.mark.parametrize("r", [7, 9, 12, 17])
def test_reduced_row_sums_past_one_block(r):
    # At rank 18 the sums of at most r + 1 >= 8 reduced rows outnumber one
    # block, so the trailing rows' table is offset by sums of the leading
    # ones; at r + 1 = 18 they are the whole row space. Each sum is made
    # once, in blocks of at most 2**_BLOCK_BITS words.
    h = _seeded(70, 18, "dense", rows=18)
    assert rank(h) == 18
    reduced = gf2._limbs(gf2._record(h).rows, h.cols)
    blocks = list(gf2._sum_blocks(reduced, r + 1))
    assert len(blocks) > 1
    assert max(len(block) for block in blocks) <= 2**gf2._BLOCK_BITS
    assert sum(len(block) for block in blocks) == gf2._sum_count(18, r + 1)
    _check(h, r, DUAL_ENUM)


@pytest.mark.parametrize("r", [3, 5])
def test_pruned_words_match_oracle_past_256_rows(r):
    # 300 rows of weight 4 on 64 columns. Past 256 rows one leading row's
    # triple bounds outnumber a block, so they are compared a slice of the
    # later rows at a time; thousands of pairs and triples are light.
    rng = np.random.default_rng(300)
    h = np.zeros((300, 64), dtype=np.uint8)
    for k in range(300):
        h[k, rng.choice(64, size=4, replace=False)] = 1
    assert len(_check(BitMatrix(h), r, BOUNDED_COMBOS)) > 4000


def test_locality_past_every_weight_prunes_nothing():
    # With r + 1 past n every combination is light: each mode keeps the
    # words it keeps at r + 1 = n, and no bound leaves its integer type.
    h = _seeded(65, 65, "sparse")
    for mode in (BOUNDED_COMBOS, DUAL_ENUM):
        assert _check(h, 2**40, mode) == _check(h, h.cols - 1, mode)


@pytest.mark.parametrize("rows", [0, 1, 2, 3])
def test_too_few_rows_for_a_triple(rows):
    # The all-ones row and its two halves, of which the first `rows`: none,
    # one row, one pair, one triple (which XORs to zero).
    halves = np.repeat(np.eye(2, dtype=np.uint8), 35, axis=1)
    h = BitMatrix(np.vstack([np.ones((1, 70), dtype=np.uint8), halves])[:rows])
    for mode in (BOUNDED_COMBOS, DUAL_ENUM):
        assert len(_check(h, 69, mode)) == [0, 1, 3, 3][rows]
        assert len(_check(h, 34, mode)) == [0, 0, 2, 2][rows]


STUDY_SEEDS = (0, 271828)


@pytest.mark.parametrize("seed", STUDY_SEEDS)
def test_pruned_words_match_oracle_on_study_codes(seed):
    # The benchmark's nine codes as it presents them: bounded-combos on
    # each, and dual-enum up to the rank cap. The mode auto picks finds
    # words; bounded-combos on mixed rows may find none.
    workloads = _bench_workloads()
    for index, spec in enumerate(workloads.STUDY_CODES):
        code = build_xlrc(*spec[:3], convention=spec[3])
        p = code.params
        matrix, _ = workloads.present(
            code.H.array, seed, index, mix=p.n - p.k <= workloads.MIX_RANK_CAP
        )
        h = BitMatrix(matrix)
        modes = (BOUNDED_COMBOS, DUAL_ENUM) if rank(h) <= DUAL_ENUM_RANK_CAP else (BOUNDED_COMBOS,)
        found = {mode: _check(h, p.r, mode) for mode in modes}
        assert found[resolve_search_mode(h, AUTO)], spec


@pytest.mark.parametrize("mix", [False, True], ids=["canonical", "row-mixed"])
@pytest.mark.parametrize("spec", [(7, 4, 3), (9, 4, 2)], ids=["xlrc743", "xlrc942"])
def test_pruned_words_match_oracle_on_large_codes(spec, mix):
    # n = 1,320 and 2,145, past the rank cap. Canonical rows are sparse and
    # the bounds prune nearly every triple; mixed rows weigh about n / 2 and
    # the bounds prune none.
    code = build_xlrc(*spec)
    if mix:
        matrix, _ = _bench_workloads().present(code.H.array, 0, 0, mix=True)
    else:
        matrix = code.H.array
    words = _check(BitMatrix(matrix), code.params.r, BOUNDED_COMBOS)
    assert len(words) == (code.H.rows if not mix else 0)


def _study_rank_20():
    """The study's row-mixed xlrc(3,4,0): rank 20, r = 3, so at most
    sum(comb(20, s) for s <= 4) = 6,196 sums of reduced rows against 2**20
    words of the row space."""
    workloads = _bench_workloads()
    index = workloads.STUDY_CODES.index((3, 4, 0, "incidence"))
    matrix, _ = workloads.present(build_xlrc(3, 4, 0).H.array, 0, index, mix=True)
    return BitMatrix(matrix), 3, DUAL_ENUM


def _canonical_xlrc743():
    code = build_xlrc(7, 4, 3)
    return code.H, code.params.r, BOUNDED_COMBOS


def _transversal_529():
    """The lines {(i, a + b i mod 23) : i < 4} of a 4 x 23 grid: 529 rows
    of weight 4 on 92 columns, two of them meeting in at most one point, so
    with r + 1 = 4 every pair weighs at least 6, every triple bound is at
    least 6, and the light words are the rows. Past 256 rows one leading
    row's triple bounds outnumber a block."""
    q = 23
    h = np.zeros((q * q, 4 * q), dtype=np.uint8)
    for a in range(q):
        for b in range(q):
            h[a * q + b, [i * q + (a + b * i) % q for i in range(4)]] = 1
    return BitMatrix(h), 3, BOUNDED_COMBOS


@pytest.mark.parametrize(
    "make",
    [_study_rank_20, _canonical_xlrc743, _transversal_529],
    ids=["rank20", "xlrc743", "transversal529"],
)
def test_pruned_pass_holds_at_most_one_block(make):
    # What a pass allocates beyond the words it returns stays within one
    # block of 2**_BLOCK_BITS packed words, whatever 2**rank or the number of
    # triples, plus, in bounded-combos, the intersection counts G of every
    # two rows (rows**2 int32) and temporaries no larger in all than G.
    h, r, mode = make()
    gf2._record(h)
    tracemalloc.start()
    try:
        words = verifier._low_weight_words(h, r, mode)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Each input's light words are its rows, once each.
    assert len(words) == h.rows
    gram = 4 * h.rows**2 if mode == BOUNDED_COMBOS else 0
    assert peak - retained <= 2**gf2._BLOCK_BITS * words.shape[1] * 8 + 2 * gram
