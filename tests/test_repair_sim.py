import numpy as np
import pytest

from lrckit import (
    BitMatrix,
    InvalidCodeword,
    InvalidParams,
    RecoveringFamily,
    build_wzl,
    build_xlrc,
    canonical_family,
    discover_family,
    recovery_parity_word,
    simulate_repair,
    systematic_encode,
    verify_family,
)
from known_matrices import WZL_42_INCIDENCE, XLRC_221_COMPLEMENT
from oracles import codewords_by_brute_force


def test_systematic_encode_zero_and_parity():
    h = BitMatrix(WZL_42_INCIDENCE)
    zero = systematic_encode(h, np.zeros(3, dtype=np.uint8))
    assert not zero.any()
    # [1 1 1]: pivot is column 1, message fills columns 2 and 3
    word = systematic_encode(BitMatrix([[1, 1, 1]]), np.array([1, 0], dtype=np.uint8))
    assert tuple(map(int, word)) == (1, 1, 0)


def test_systematic_encode_wide_code():
    h = BitMatrix(XLRC_221_COMPLEMENT)
    rng = np.random.default_rng(5)
    messages, words = set(), set()
    for _ in range(20):
        message = rng.integers(0, 2, size=9, dtype=np.uint8)
        word = systematic_encode(h, message)
        assert not ((h.array @ word) & 1).any()
        messages.add(tuple(map(int, message)))
        words.add(tuple(map(int, word)))
    assert len(words) == len(messages)


def test_systematic_encode_parity_past_255_ones():
    # One parity row over 300 columns: the pivot bit is the parity of the
    # whole message, whatever its length.
    h = BitMatrix(np.ones((1, 300), dtype=np.uint8))
    for ones in (255, 256, 257, 299):
        message = np.zeros(299, dtype=np.uint8)
        message[:ones] = 1
        word = systematic_encode(h, message)
        assert int(word[0]) == ones % 2
        assert np.array_equal(word[1:], message)


def test_systematic_encode_round_trip():
    h = BitMatrix(WZL_42_INCIDENCE)
    seen = set()
    for value in range(8):
        message = np.array([(value >> s) & 1 for s in (2, 1, 0)], dtype=np.uint8)
        word = systematic_encode(h, message)
        assert not ((h.array @ word) & 1).any()
        seen.add(tuple(map(int, word)))
    expected = {tuple(map(int, w)) for w in codewords_by_brute_force(h)}
    assert seen == expected


def test_systematic_encode_checks_message_length():
    h = BitMatrix(WZL_42_INCIDENCE)
    with pytest.raises(InvalidParams):
        systematic_encode(h, np.zeros(4, dtype=np.uint8))


def test_repair_known_trace():
    code = build_xlrc(1, 2, 1)
    family = canonical_family(code)
    word = systematic_encode(code.H, np.array([1, 0, 1, 1], dtype=np.uint8))
    trace = simulate_repair(code.H, family, word, 3)
    assert trace.erased == 3
    truth = int(word[2])
    assert trace.recovered_values == (truth, truth)
    total_reads = sum(len(s) for s in family.sets_by_coordinate[2])
    assert sum(trace.helper_load.values()) == total_reads
    for helpers in trace.recoveries:
        positions = [pos for pos, _ in helpers]
        assert positions == sorted(positions)
        assert 3 not in positions
        for pos, value in helpers:
            assert value == int(word[pos - 1])


def test_repair_all_coordinates_both_conventions():
    for convention in ("incidence", "complement"):
        code = build_xlrc(2, 2, 1, convention=convention)
        family = canonical_family(code)
        rng = np.random.default_rng(8)
        for _ in range(5):
            message = rng.integers(0, 2, size=code.params.k, dtype=np.uint8)
            word = systematic_encode(code.H, message)
            for coord in range(1, code.params.n + 1):
                trace = simulate_repair(code.H, family, word, coord)
                truth = int(word[coord - 1])
                assert all(v == truth for v in trace.recovered_values)


def test_repair_rejects_bad_inputs():
    h = BitMatrix(WZL_42_INCIDENCE)
    family = discover_family(h, 2, 2, 0)
    good = systematic_encode(h, np.array([1, 1, 0], dtype=np.uint8))

    with pytest.raises(InvalidParams):
        simulate_repair(h, family, good, 0)
    with pytest.raises(InvalidParams):
        simulate_repair(h, family, good, 7)

    bad_parity = good.copy()
    bad_parity[0] ^= 1
    with pytest.raises(InvalidCodeword):
        simulate_repair(h, family, bad_parity, 1)

    with pytest.raises(InvalidCodeword):
        simulate_repair(h, family, np.array([2, 0, 0, 0, 0, 0]), 1)

    short = np.zeros(5, dtype=np.uint8)
    with pytest.raises(InvalidParams):
        simulate_repair(h, family, short, 1)


def test_repair_rejects_family_mismatch():
    h = BitMatrix(WZL_42_INCIDENCE)
    other = discover_family(build_wzl(3, 2).H, 2, 2, 0)
    with pytest.raises(InvalidParams):
        simulate_repair(h, other, np.zeros(6, dtype=np.uint8), 1)


def test_helper_load_disjoint_sets():
    # x = 0: recovering sets are disjoint, no helper is read twice
    h = build_wzl(4, 2).H
    family = discover_family(h, 2, 2, 0)
    word = systematic_encode(h, np.array([0, 1, 1], dtype=np.uint8))
    for coord in range(1, 7):
        trace = simulate_repair(h, family, word, coord)
        assert set(trace.helper_load.values()) == {1}


def test_helper_load_sibling_overlap():
    # x = 1: the duplicated column is read by both recovering sets
    code = build_xlrc(2, 2, 1, convention="complement")
    family = canonical_family(code)
    word = systematic_encode(code.H, np.zeros(9, dtype=np.uint8))
    trace = simulate_repair(code.H, family, word, 1)
    assert trace.helper_load[2] == 2
    assert all(load == 1 for h, load in trace.helper_load.items() if h != 2)
    sets = family.sets_by_coordinate[0]
    assert set(trace.helper_load) == set().union(*sets)
    assert list(trace.helper_load) == sorted(trace.helper_load)


def _presented(code, seed):
    """H with a seeded invertible row mixing and column permutation, and the
    canonical family carried through the permutation."""
    rng = np.random.default_rng(seed)
    rows, n = code.H.rows, code.H.cols
    eye = np.eye(rows, dtype=np.int64)
    lower = np.tril(rng.integers(0, 2, (rows, rows)), -1) + eye
    upper = np.triu(rng.integers(0, 2, (rows, rows)), 1) + eye
    perm = rng.permutation(n)
    h = BitMatrix((((lower @ upper) & 1) @ code.H.array[:, perm]) & 1)
    new_of_old = np.argsort(perm)
    family = RecoveringFamily(
        n=n,
        sets_by_coordinate=tuple(
            tuple(frozenset(int(new_of_old[e - 1]) + 1 for e in s) for s in sets)
            for sets in (canonical_family(code).sets_by_coordinate[old] for old in perm)
        ),
    )
    return h, family


def test_repair_on_row_mixed_presentation():
    code = build_xlrc(2, 3, 1)
    h, family = _presented(code, seed=31)
    assert verify_family(h, family, code.params.r, 3, 1).ok
    rows = {h.array[k].tobytes() for k in range(h.rows)}
    solved = 0
    rng = np.random.default_rng(32)
    for _ in range(3):
        word = systematic_encode(h, rng.integers(0, 2, size=code.params.k, dtype=np.uint8))
        for i in range(1, h.cols + 1):
            trace = simulate_repair(h, family, word, i)
            assert trace.recovered_values == (int(word[i - 1]),) * 3
            for s, reads in zip(family.sets_by_coordinate[i - 1], trace.recoveries):
                parity = recovery_parity_word(h, i - 1, [e - 1 for e in s])
                solved += parity.tobytes() not in rows
                helpers = [pos for pos, _ in reads]
                assert helpers == [j + 1 for j in np.flatnonzero(parity) if j != i - 1]
                assert set(helpers) <= s
                assert all(value == int(word[pos - 1]) for pos, value in reads)
    # The mixing hides most sets from the single-row fast path.
    assert solved > 0


def test_unrealizable_set_named_by_repair_and_verification():
    h = BitMatrix(WZL_42_INCIDENCE)
    base = discover_family(h, 2, 2, 0)
    bad = 4
    sets = list(base.sets_by_coordinate)
    # Columns of H are distinct, so no parity word has weight 2.
    sets[bad - 1] = (frozenset({1}),) + sets[bad - 1][1:]
    family = RecoveringFamily(n=6, sets_by_coordinate=tuple(sets))
    word = systematic_encode(h, np.array([1, 0, 1], dtype=np.uint8))
    for erased in (1, 6):
        with pytest.raises(InvalidParams, match=f"coordinate {bad}: "):
            simulate_repair(h, family, word, erased)
    report = verify_family(h, family, 2, 2, 0)
    unrealizable = [f for f in report.failures if "admits no parity word" in f[1]]
    assert unrealizable == [(bad, f"set 1 admits no parity word through {bad}")]
    # With a second bad coordinate after it, repair still names the first.
    sets[5] = sets[5][:1] + (frozenset({1}),)
    family = RecoveringFamily(n=6, sets_by_coordinate=tuple(sets))
    with pytest.raises(InvalidParams, match=f"coordinate {bad}: "):
        simulate_repair(h, family, word, 1)
