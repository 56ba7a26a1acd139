from collections import Counter

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
    rank,
    recovery_parity_word,
    simulate_repair,
    solve,
    systematic_encode,
    verify_family,
)
from lrckit import gf2, repair_sim, verifier
from known_matrices import WZL_42_INCIDENCE, XLRC_221_COMPLEMENT
from oracles import (
    codewords_by_brute_force,
    fails_parity_by_product,
    parity_words_by_set,
    repair_trace_by_parity_word,
)


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


_CODE12 = build_xlrc(2, 2, 1, convention="complement")
_FAMILY12 = canonical_family(_CODE12)


def _filled(value, n):
    """``value`` then n - 1 zeros, in value's own dtype."""
    return np.array([value] + [0] * (n - 1), dtype=np.asarray(value).dtype)


# Each input that must hold bits, filled from one value: the error and message
# a non-bit value raises.
_BIT_INPUTS = {
    "matrix": (
        lambda v: BitMatrix(_filled(v, 2)[None, :]),
        InvalidParams,
        "matrix entries must be 0 or 1",
    ),
    "codeword": (
        lambda v: simulate_repair(_CODE12.H, _FAMILY12, _filled(v, 12), 2),
        InvalidCodeword,
        "codeword entries must be 0 or 1",
    ),
    "message": (
        lambda v: systematic_encode(_CODE12.H, _filled(v, 9)),
        InvalidParams,
        "message entries must be 0 or 1",
    ),
    "rank": (
        lambda v: rank(_filled(v, 2)[None, :]),
        InvalidParams,
        "matrix entries must be 0 or 1",
    ),
    "solve-rhs": (
        lambda v: solve(np.array([[1, 0]], dtype=np.uint8), _filled(v, 1)),
        InvalidParams,
        "matrix entries must be 0 or 1",
    ),
}


@pytest.mark.parametrize("value", [1.7, 0.6, 0.9, 2, -1, 256, float("nan"), np.uint8(2)])
@pytest.mark.parametrize("target", sorted(_BIT_INPUTS))
def test_entries_must_equal_zero_or_one(target, value):
    call, error, message = _BIT_INPUTS[target]
    with pytest.raises(error, match=message):
        call(value)
    call(False)
    call(0.0)
    assert BitMatrix([[True, 1.0, 0.0]]) == BitMatrix([[1, 1, 0]])
    floats = systematic_encode(_CODE12.H, [1.0, 0.0] * 4 + [1.0])
    assert np.array_equal(floats, systematic_encode(_CODE12.H, [1, 0] * 4 + [1]))


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


def _same_trace(trace, want):
    erased, recoveries, values, load = want
    assert trace.erased == erased
    assert trace.recoveries == recoveries
    assert trace.recovered_values == values
    assert list(trace.helper_load.items()) == list(load.items())


@pytest.mark.parametrize(
    "spec",
    [(2, 2, 1, "complement"), (2, 3, 1, "incidence"), (4, 3, 2, "incidence"),
     (5, 3, 3, "incidence")],
)
def test_repair_matches_parity_word_oracle(spec):
    code = build_xlrc(*spec[:3], convention=spec[3])
    h, family = _presented(code, seed=sum(spec[:3]))
    words = parity_words_by_set(h, family)
    rng = np.random.default_rng(spec[:3])
    for _ in range(2):
        word = systematic_encode(h, rng.integers(0, 2, size=code.params.k, dtype=np.uint8))
        for i in range(1, h.cols + 1):
            trace = simulate_repair(h, family, word, i)
            _same_trace(trace, repair_trace_by_parity_word(h, family, word, i, words))
    # Each trace owns its load dict: changing one leaves the next intact.
    first = simulate_repair(h, family, word, 1)
    first.helper_load.clear()
    second = simulate_repair(h, family, word, 1)
    assert second.helper_load is not first.helper_load
    _same_trace(second, repair_trace_by_parity_word(h, family, word, 1, words))


def _raised(call):
    with pytest.raises((InvalidParams, InvalidCodeword)) as info:
        call()
    return type(info.value), str(info.value)


def test_repair_errors_match_parity_word_oracle():
    code = build_xlrc(2, 3, 1)
    h, family = _presented(code, seed=41)
    n = h.cols
    word = systematic_encode(h, np.ones(code.params.k, dtype=np.uint8))
    flipped = word.copy()
    flipped[3] ^= 1
    sets = list(family.sets_by_coordinate)
    # One helper realizes a set only when its column of H equals the
    # coordinate's. Column 1 equals neither column 7 nor column 12.
    for i in (12, 7):
        assert not np.array_equal(h.array[:, 0], h.array[:, i - 1])
        sets[i - 1] = sets[i - 1][:1] + (frozenset({1}),) + sets[i - 1][2:]
    cut = RecoveringFamily(n=n, sets_by_coordinate=tuple(sets))
    other = canonical_family(build_xlrc(2, 2, 1))
    cases = [
        (family, word, 0),
        (family, word, n + 1),
        (family, word[:-1], 1),
        (family, word[None, :], 1),
        (family, np.where(word == 1, 2, 0), 1),
        (family, word.astype(float) * 0.5, 1),
        (family, flipped, 1),
        (other, word, 1),
        (cut, word, 1),
        (cut, word, n),
    ]
    seen = set()
    for fam, cw, erased in cases:
        got = _raised(lambda: simulate_repair(h, fam, cw, erased))
        assert got == _raised(lambda: repair_trace_by_parity_word(h, fam, cw, erased))
        seen.add(got)
    assert (InvalidParams, "coordinate 7: a recovering set admits no parity word") in seen
    assert (InvalidCodeword, "vector fails the parity checks") in seen
    assert (InvalidCodeword, "codeword entries must be 0 or 1") in seen
    # The cut family repairs nothing, but verification names both defects.
    report = verify_family(h, cut, code.params.r, 3, 1)
    assert [i for i, text in report.failures if "admits no parity word" in text] == [7, 12]


def _counting(monkeypatch):
    """Count calls of the batched parity-word kernel, solve and _rref."""
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    kernel = counted("kernel", verifier._parity_words)
    monkeypatch.setattr(verifier, "_parity_words", kernel)
    monkeypatch.setattr(gf2, "solve", counted("solve", gf2.solve))
    monkeypatch.setattr(gf2, "_rref", counted("rref", gf2._rref))
    return calls


def test_repair_builds_its_table_once(monkeypatch):
    # The table is built by one call of the batched parity-word kernel, with
    # no per-set solve. The basis is eliminated once for all encodes, and no
    # repair after the table build solves or eliminates anything.
    code = build_xlrc(2, 3, 1)
    h, family = _presented(code, seed=43)
    rng = np.random.default_rng(44)
    calls = _counting(monkeypatch)
    repair_sim._matrix_record.cache_clear()
    verifier._realizing_helpers.cache_clear()
    words = [
        systematic_encode(h, rng.integers(0, 2, size=code.params.k, dtype=np.uint8))
        for _ in range(3)
    ]
    assert calls == {"rref": 1}
    simulate_repair(h, family, words[0], 1)
    assert calls == {"rref": 1, "kernel": 1}
    built = dict(calls)
    for word in words:
        for i in range(1, h.cols + 1):
            simulate_repair(h, family, word, i)
    assert calls == built
    # A table built by verification serves repair the same way.
    other = _presented(code, seed=45)
    assert verify_family(*other, code.params.r, 3, 1).ok
    built = dict(calls, kernel=2, rref=2)
    word = systematic_encode(other[0], np.ones(code.params.k, dtype=np.uint8))
    assert calls == built
    for i in range(1, h.cols + 1):
        simulate_repair(*other, word, i)
    assert calls == built


def test_encode_eliminates_once_per_matrix(monkeypatch):
    h = BitMatrix(XLRC_221_COMPLEMENT)
    rng = np.random.default_rng(46)
    messages = rng.integers(0, 2, size=(100, 9), dtype=np.uint8)
    calls = _counting(monkeypatch)
    repair_sim._matrix_record.cache_clear()
    words = [systematic_encode(h, m) for m in messages]
    assert calls == {"rref": 1}
    twin = BitMatrix(np.array(XLRC_221_COMPLEMENT).tolist())
    assert twin is not h
    plain = np.array(XLRC_221_COMPLEMENT)
    for m, word in zip(messages, words):
        assert np.array_equal(systematic_encode(twin, m), word)
        assert np.array_equal(systematic_encode(plain, m), word)
    assert calls == {"rref": 1}
    # The cached record is read-only, and both repair caches are bounded.
    record = repair_sim._matrix_record(h)
    for array in record:
        with pytest.raises(ValueError):
            array[0, 0] = 1
    assert np.array_equal(record.basis, gf2.nullspace_basis(h).array)
    assert repair_sim._matrix_record.cache_info().maxsize == 64
    assert verifier._realizing_helpers.cache_info().maxsize == 64


@pytest.mark.parametrize("rows", [1, 63, 64, 65, 129])
def test_packed_parity_test_matches_product(rows):
    rng = np.random.default_rng(rows)
    for cols in sorted({1, 2, 300, *rng.integers(1, 301, size=5).tolist()}):
        h = BitMatrix(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))
        k = cols - rank(h)
        vectors = [rng.integers(0, 2, size=cols, dtype=np.uint8) for _ in range(4)]
        for _ in range(3):
            word = systematic_encode(h, rng.integers(0, 2, size=k, dtype=np.uint8))
            assert not repair_sim._fails_checks(h, word)
            vectors.append(word)
        # Every single-bit flip of the last codeword.
        for j in range(cols):
            flipped = word.copy()
            flipped[j] ^= 1
            vectors.append(flipped)
        for v in vectors:
            assert repair_sim._fails_checks(h, v) == fails_parity_by_product(h, v)


def test_matrix_without_rows_names_coordinate_one():
    n = 4
    h = BitMatrix.zeros(0, n)
    family = RecoveringFamily(
        n=n, sets_by_coordinate=tuple((frozenset({i % n + 1}),) for i in range(1, n + 1))
    )
    word = systematic_encode(h, [1, 0, 1, 1])
    assert word.tolist() == [1, 0, 1, 1]
    assert not repair_sim._fails_checks(h, word)
    text = "^coordinate 1: a recovering set admits no parity word$"
    with pytest.raises(InvalidParams, match=text):
        simulate_repair(h, family, word, 2)


def test_codeword_forms_give_identical_traces():
    code = build_xlrc(2, 3, 1)
    h, family = _presented(code, seed=47)
    message = np.random.default_rng(48).integers(0, 2, size=code.params.k, dtype=np.uint8)
    word = systematic_encode(h, message)
    strided = np.repeat(word, 2)[::2]
    reversed_ = word[::-1].copy()[::-1]
    assert not strided.flags.contiguous and not reversed_.flags.contiguous
    forms = [
        word.astype(bool),
        word.astype(np.int64),
        word.astype(float),
        strided,
        reversed_,
        word.tolist(),
    ]
    for i in range(1, h.cols + 1):
        t = simulate_repair(h, family, word, i)
        want = (t.erased, t.recoveries, t.recovered_values, t.helper_load)
        for form in forms:
            _same_trace(simulate_repair(h, family, form, i), want)
    flipped = word.copy()
    flipped[0] ^= 1
    twos = np.where(word == 1, 2, 0).astype(np.uint8)
    not_bits, parity = "codeword entries must be 0 or 1", "vector fails the parity checks"
    bad = [
        (np.where(word == 1, 2, 0), not_bits),
        (word * 0.5, not_bits),
        (np.repeat(twos, 2)[::2], not_bits),
        (np.repeat(flipped, 2)[::2], parity),
        (flipped.astype(bool), parity),
    ]
    for cw, text in bad:
        with pytest.raises(InvalidCodeword) as info:
            simulate_repair(h, family, cw, 1)
        assert str(info.value) == text


def test_set_whose_word_reads_no_helper():
    # Rows 1 and 2 of H sum to the unit word at coordinate 1, so c_1 = 0 on
    # every codeword. Set {4} of coordinate 1 is realized by that word alone
    # and reads no helper, between two sets that row 1 realizes.
    h = BitMatrix([[1, 1, 1, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 1]])
    family = RecoveringFamily(
        n=5,
        sets_by_coordinate=(
            (frozenset({2, 3}), frozenset({4}), frozenset({2, 3, 5})),
            (frozenset({3}),),
            (frozenset({2}),),
            (frozenset({5}),),
            (frozenset({4}),),
        ),
    )
    for message in ([0, 0], [1, 0], [0, 1], [1, 1]):
        word = systematic_encode(h, message)
        for i in range(1, 6):
            trace = simulate_repair(h, family, word, i)
            _same_trace(trace, repair_trace_by_parity_word(h, family, word, i))
        reads = simulate_repair(h, family, word, 1).recoveries
        assert [len(r) for r in reads] == [2, 0, 2]
