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
    candidate_sets,
    canonical_family,
    discover_family,
    nullspace_basis,
    rank,
    recovery_parity_word,
    simulate_repair,
    systematic_encode,
    verify_family,
)
from lrckit import gf2, repair_sim, verifier
from lrckit.verifier import AUTO, DUAL_ENUM, resolve_search_mode
from known_matrices import WZL_42_INCIDENCE, XLRC_221_COMPLEMENT
from oracles import (
    codewords_by_brute_force,
    fails_parity_by_product,
    parity_words_by_set,
    repair_trace_by_parity_word,
    rref_by_column_loop,
)


def test_systematic_encode_zero_and_parity():
    h = BitMatrix(WZL_42_INCIDENCE)
    zero = systematic_encode(h, np.zeros(3, dtype=np.uint8))
    assert not zero.any()
    # [1 1 1]: pivot is column 1, message fills columns 2 and 3
    word = systematic_encode(BitMatrix([[1, 1, 1]]), np.array([1, 0], dtype=np.uint8))
    assert tuple(map(int, word)) == (1, 1, 0)
    # A full-rank H (k = 0) encodes the empty message to the zero word. On a
    # row-mixed xlrc(7,4,3), n = 1,320, rref(H) is far from H. Each word is
    # the message times the nullspace basis and passes every check of H.
    full_rank = BitMatrix([[1, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    mixed, _ = _presented(build_xlrc(7, 4, 3), seed=53)
    message = np.random.default_rng(53).integers(0, 2, size=mixed.cols - rank(mixed))
    for h, m in ((full_rank, np.zeros(0, dtype=np.uint8)), (mixed, message.astype(np.uint8))):
        word = systematic_encode(h, m)
        basis = nullspace_basis(h).array.astype(np.int64)
        assert np.array_equal(word, (m.astype(np.int64) @ basis) % 2)
        assert not fails_parity_by_product(h, word)


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
    canonical = canonical_family(code).sets_by_coordinate
    family = RecoveringFamily(
        n=n,
        sets_by_coordinate=tuple(
            tuple(frozenset(int(new_of_old[e - 1]) + 1 for e in s) for s in sets)
            for sets in (canonical[old] for old in perm)
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
    # The loads depend only on (H, family): the traces of a coordinate share
    # one read-only mapping, which no trace can change.
    first = simulate_repair(h, family, word, 1)
    with pytest.raises(TypeError):
        first.helper_load[next(iter(first.helper_load))] = 0
    second = simulate_repair(h, family, word, 1)
    assert second.helper_load is first.helper_load
    _same_trace(second, repair_trace_by_parity_word(h, family, word, 1, words))


def test_trace_is_a_named_tuple():
    # Traces compare by value and unpack; the shared mapping makes them
    # unhashable.
    code = build_xlrc(2, 3, 1)
    h, family = _presented(code, seed=6)
    word = systematic_encode(h, np.ones(code.params.k, dtype=np.uint8))
    first = simulate_repair(h, family, word, 2)
    second = simulate_repair(h, family, word.tolist(), 2)
    assert first == second and first is not second
    assert first != simulate_repair(h, family, word, 3)
    erased, recoveries, values, load = first
    assert (erased, recoveries, values, load) == (
        first.erased, first.recoveries, first.recovered_values, first.helper_load
    )
    assert repair_sim.RepairTrace._fields == (
        "erased", "recoveries", "recovered_values", "helper_load"
    )
    with pytest.raises(TypeError):
        hash(first)


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


def _count(monkeypatch, calls, module, name, key):
    """Count the calls of ``module.name`` under ``calls[key]``."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


def _counting(monkeypatch):
    """Count calls of the parity-word kernel and _rref."""
    calls = Counter()
    _count(monkeypatch, calls, verifier, "_parity_words", "kernel")
    _count(monkeypatch, calls, gf2, "_rref", "rref")
    return calls


def test_repair_builds_its_table_once(monkeypatch):
    # The table is built by one call of the parity-word kernel,
    # with no per-set elimination. H is eliminated once, by the first
    # encode, and neither the table build nor any repair after it
    # eliminates anything again.
    code = build_xlrc(2, 3, 1)
    h, family = _presented(code, seed=43)
    rng = np.random.default_rng(44)
    calls = _counting(monkeypatch)
    gf2._record.cache_clear()
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
    gf2._record.cache_clear()
    words = [systematic_encode(h, m) for m in messages]
    assert calls == {"rref": 1}
    twin = BitMatrix(np.array(XLRC_221_COMPLEMENT).tolist())
    assert twin is not h
    plain = np.array(XLRC_221_COMPLEMENT)
    for m, word in zip(messages, words):
        assert np.array_equal(systematic_encode(twin, m), word)
        assert np.array_equal(systematic_encode(plain, m), word)
    assert calls == {"rref": 1}
    # The cached record matches the column-loop oracle, and both caches
    # that repair reads are bounded.
    record = gf2._record(h)
    reduced, pivots = rref_by_column_loop(h.array)
    assert record.pivots == pivots
    rows = gf2._unpack_rows(gf2._limbs(record.rows, h.cols), h.cols)
    assert np.array_equal(rows, reduced[: len(pivots)])
    assert gf2._record.cache_info().maxsize == 64
    assert verifier._realizing_helpers.cache_info().maxsize == 64
    assert repair_sim._swept.cache_info().maxsize == 1


def test_workflow_eliminates_each_matrix_once(monkeypatch):
    # Every step of the workflow on one matrix reads the same record:
    # rank, the search mode, discovery over dual-enum words, the deep
    # verification, an encode and the repair of every coordinate.
    code = build_xlrc(2, 3, 1)
    h, _ = _presented(code, seed=47)
    p = code.params
    calls = _counting(monkeypatch)
    gf2._record.cache_clear()
    verifier._realizing_helpers.cache_clear()
    assert rank(h) == p.n - p.k
    assert resolve_search_mode(h, AUTO) == DUAL_ENUM
    family = discover_family(h, p.r, p.t, p.x)
    assert verify_family(h, family, p.r, p.t, p.x, deep=True).deep_checked
    word = systematic_encode(h, np.ones(p.k, dtype=np.uint8))
    for i in range(1, h.cols + 1):
        assert set(simulate_repair(h, family, word, i).recovered_values) == {int(word[i - 1])}
    assert calls == {"rref": 1, "kernel": 1}


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
    h = BitMatrix(np.zeros((0, n), dtype=np.uint8))
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
    # Each form repairs alike when the verdict before it is a refusal.
    for form in forms:
        with pytest.raises(InvalidCodeword, match="parity"):
            simulate_repair(h, family, flipped, h.cols)
        _same_trace(simulate_repair(h, family, form, h.cols), want)
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
    # Rows 1 and 2 of H sum to the unit word at coordinate 3, so c_3 = 0 on
    # every codeword. That word is a row of rref(H), so it realizes every set
    # of coordinate 3, which reads no helper. Those empty spans lie between
    # the sets of coordinates 2 and 4, which read one helper each.
    h = BitMatrix([[1, 1, 1, 0, 0], [1, 1, 0, 0, 0], [0, 0, 0, 1, 1]])
    family = RecoveringFamily(
        n=5,
        sets_by_coordinate=(
            (frozenset({2}),),
            (frozenset({1}),),
            (frozenset({1, 2}), frozenset({4}), frozenset({1, 2, 5})),
            (frozenset({5}),),
            (frozenset({4}),),
        ),
    )
    for message in ([0, 0], [1, 0], [0, 1], [1, 1]):
        word = systematic_encode(h, message)
        for i in range(1, 6):
            trace = simulate_repair(h, family, word, i)
            _same_trace(trace, repair_trace_by_parity_word(h, family, word, i))
        reads = [
            len(r) for i in (2, 3, 4) for r in simulate_repair(h, family, word, i).recoveries
        ]
        assert reads == [1, 0, 0, 0, 1]


@pytest.mark.parametrize("mirror", [False, True], ids=["unit-row-last", "unit-row-first"])
def test_sets_without_helpers_recover_zero(mirror):
    # Row 1 of H is the unit word at coordinate 4, so c_4 = 0 on every
    # codeword, and that word realizes both sets of coordinate 4, which read
    # no helper. Those empty sets come after the last helper read, which is
    # coordinate 3's. The mirror reverses the columns: the unit row is at
    # column 1, and coordinate 1's empty sets come before the first read.
    rows = [[0, 0, 0, 1], [1, 1, 1, 0]]
    sets = [({2, 3},), ({1, 3},), ({1, 2},), ({2}, {1, 3})]
    empty = 4
    if mirror:
        rows = [row[::-1] for row in rows]
        sets = [tuple({5 - e for e in s} for s in c) for c in sets[::-1]]
        empty = 1
    h = BitMatrix(rows)
    family = RecoveringFamily(n=4, sets_by_coordinate=sets)
    words = parity_words_by_set(h, family)
    for message in ([0, 0], [1, 0], [0, 1], [1, 1]):
        word = systematic_encode(h, message)
        for i in range(1, 5):
            trace = simulate_repair(h, family, word, i)
            _same_trace(trace, repair_trace_by_parity_word(h, family, word, i, words))
            assert all(type(v) is int for v in trace.recovered_values)
        trace = simulate_repair(h, family, word, empty)
        assert (trace.recoveries, trace.recovered_values) == (((), ()), (0, 0))


def test_kept_sweep_follows_its_family():
    # Two families on one matrix and one codeword array, alternated
    # coordinate by coordinate. The second lists each coordinate's sets in
    # reverse, so a sweep kept for one family gives the other's traces in
    # the wrong order.
    code = build_xlrc(2, 3, 1)
    h, family = _presented(code, seed=53)
    reverse = RecoveringFamily(
        n=family.n, sets_by_coordinate=tuple(sets[::-1] for sets in family.sets_by_coordinate)
    )
    words = {f: parity_words_by_set(h, f) for f in (family, reverse)}
    rng = np.random.default_rng(54)
    word = systematic_encode(h, rng.integers(0, 2, size=code.params.k, dtype=np.uint8))
    differ = 0
    for i in range(1, h.cols + 1):
        traces = []
        for f in (family, reverse):
            traces.append(simulate_repair(h, f, word, i))
            _same_trace(traces[-1], repair_trace_by_parity_word(h, f, word, i, words[f]))
        differ += traces[0].recoveries != traces[1].recoveries
    assert differ == h.cols


def _refused(h, family, cw, text):
    with pytest.raises(InvalidCodeword) as info:
        simulate_repair(h, family, cw, 1)
    assert str(info.value) == text


def test_kept_verdict_answers_only_its_matrix_and_bytes():
    # Each refusal follows a repair of a valid word on the same matrix, so
    # the verdict kept for that word is the one a wrong key would return.
    code = build_xlrc(2, 3, 1)
    h, family = _presented(code, seed=47)
    other, other_family = _presented(code, seed=51)
    messages = np.random.default_rng(52).integers(0, 2, size=(2, code.params.k))
    word = systematic_encode(h, messages[0])
    not_bits, parity = "codeword entries must be 0 or 1", "vector fails the parity checks"
    want = repair_trace_by_parity_word(h, family, word, 1)

    # The same array, changed in place after its repair.
    mutated = word.copy()
    simulate_repair(h, family, mutated, 1)
    mutated[4] ^= 1
    _refused(h, family, mutated, parity)
    mutated[4] ^= 1
    _same_trace(simulate_repair(h, family, mutated, 1), want)

    # The same bytes on another matrix of the same width that they fail,
    # and that matrix's codeword back on the first.
    assert fails_parity_by_product(other, word)
    simulate_repair(h, family, word, 1)
    _refused(other, other_family, word, parity)
    theirs = systematic_encode(other, messages[1])
    assert fails_parity_by_product(h, theirs)
    simulate_repair(other, other_family, theirs, 1)
    _refused(h, family, theirs, parity)

    # A uint8 word holding a 2, twice: a non-bit entry is never cached.
    twos = word.copy()
    twos[np.flatnonzero(word)[0]] = 2
    for _ in range(2):
        simulate_repair(h, family, word, 1)
        _refused(h, family, twos, not_bits)
        _refused(h, family, twos, not_bits)

    # bad, good, bad: raises, returns, raises, in each form of the word.
    flipped = word.copy()
    flipped[0] ^= 1
    for form in (np.asarray, lambda w: w.astype(bool), lambda w: w.astype(float), list):
        simulate_repair(h, family, word, 1)
        _refused(h, family, form(flipped), parity)
        _same_trace(simulate_repair(h, family, form(word), 1), want)
        _refused(h, family, form(flipped), parity)
        _refused(h, family, form(flipped), parity)


def test_codeword_checked_once_per_codeword(monkeypatch):
    # A codeword-major sweep checks each codeword once; a coordinate-major
    # loop over the same words changes codeword on every call and checks
    # each time.
    code = build_xlrc(2, 3, 1)
    h, family = _presented(code, seed=49)
    messages = np.eye(3, code.params.k, dtype=np.uint8)
    words = [systematic_encode(h, m) for m in messages]
    assert len({w.tobytes() for w in words}) == 3
    calls = Counter()
    _count(monkeypatch, calls, repair_sim, "_fails_checks", "checks")
    repair_sim._swept.cache_clear()
    for word in words:
        for i in range(1, h.cols + 1):
            simulate_repair(h, family, word, i)
    assert calls == {"checks": 3}
    calls.clear()
    for i in range(1, h.cols + 1):
        for word in words:
            simulate_repair(h, family, word, i)
    assert calls == {"checks": 3 * h.cols}


def _trace_tuple(trace):
    return trace.erased, trace.recoveries, trace.recovered_values, trace.helper_load


_RTX12 = (_CODE12.params.r, _CODE12.params.t, _CODE12.params.x)
_WORD12 = systematic_encode(_CODE12.H, np.ones(9, dtype=np.uint8))


@pytest.mark.parametrize(
    "call",
    [
        lambda h: _trace_tuple(simulate_repair(h, _FAMILY12, _WORD12, 3)),
        lambda h: verify_family(h, _FAMILY12, *_RTX12, deep=True),
        lambda h: discover_family(h, *_RTX12),
        lambda h: candidate_sets(h, 3, _RTX12[0], AUTO),
    ],
    ids=["simulate_repair", "verify_family", "discover_family", "candidate_sets"],
)
def test_plain_array_matrix_gives_the_same_answer(call):
    h = _CODE12.H
    assert call(np.array(h.array)) == call(h)
    assert call(h.array.tolist()) == call(h)
