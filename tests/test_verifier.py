from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lrckit import (
    BitMatrix,
    DimensionTooLarge,
    FamilyNotFound,
    InvalidParams,
    RecoveringFamily,
    build_graph,
    build_wzl,
    build_xlrc,
    candidate_sets,
    canonical_family,
    discover_family,
    exhaustive_expected_fraction,
    rank,
    rate_upper,
    recovery_parity_word,
    verify_family,
)
from lrckit import verifier
from lrckit.verifier import (
    AUTO,
    BOUNDED_COMBOS,
    DUAL_ENUM,
    ROWS_ONLY,
    resolve_search_mode,
)
from known_matrices import WZL_42_INCIDENCE, XLRC_221_COMPLEMENT
from oracles import (
    candidates_by_brute_force,
    codewords_by_brute_force,
    pick_sets_by_enumeration,
    recoverable_by_pairs,
    separated_by,
    span_by_brute_force,
)


def _family(n, sets):
    return RecoveringFamily(
        n=n,
        sets_by_coordinate=tuple(
            tuple(frozenset(s) for s in per_coord) for per_coord in sets
        ),
    )


def test_family_validation():
    with pytest.raises(InvalidParams):
        _family(4, [[{1}], [{1}], [{4}], [{1}]])  # coordinate 2 contains itself
    with pytest.raises(InvalidParams):
        _family(4, [[{5}], [{1}], [{1}], [{1}]])  # member out of range
    with pytest.raises(InvalidParams):
        _family(4, [[set()], [{1}], [{1}], [{1}]])  # empty recovering set
    with pytest.raises(InvalidParams):
        _family(2, [[{2}]])  # one coordinate listing missing


def test_family_members_must_be_integers():
    # a member 2.5 would otherwise be read as vertex 2 by the coloring kernel
    for member in (2.5, 2.0, "2", None):
        with pytest.raises(InvalidParams, match="coordinate 1: set member must be"):
            _family(3, [[{member}], [{1}], [{1}]])
    family = _family(3, [[{np.int64(2)}], [{np.uint8(1)}], [{1}]])
    assert family == _family(3, [[{2}], [{1}], [{1}]])


@pytest.mark.parametrize(
    "form, outer",
    [(tuple, tuple), (list, tuple), (set, tuple), (iter, tuple),
     (lambda s: s + s, tuple), (frozenset, list), (frozenset, iter)],
    ids=["tuple", "list", "set", "iterator", "repeated", "nested-lists", "nested-iterators"],
)
def test_family_stores_each_set_as_a_frozenset(form, outer):
    # Every set of xlrc(2,2,1)'s canonical family written another way: the
    # family is the frozenset one, so every reader sees one set of distinct
    # ints per recovering set.
    code = build_xlrc(2, 2, 1)
    p = code.params
    canonical = canonical_family(code)
    family = RecoveringFamily(
        n=np.int64(p.n),
        sets_by_coordinate=outer(
            outer(form([np.int64(e) for e in sorted(s)]) for s in sets)
            for sets in canonical.sets_by_coordinate
        ),
    )
    assert family == canonical and hash(family) == hash(canonical)
    assert type(family.sets_by_coordinate) is tuple
    for sets in family.sets_by_coordinate:
        assert type(sets) is tuple
        assert all(type(s) is frozenset and all(type(e) is int for e in s) for s in sets)
    assert verify_family(code.H, family, p.r, p.t, p.x) == verify_family(
        code.H, canonical, p.r, p.t, p.x
    )


def test_candidate_sets_from_rows():
    h = BitMatrix(WZL_42_INCIDENCE)
    got = candidate_sets(h, 1, 2, mode=ROWS_ONLY)
    assert got == (frozenset({2, 3}), frozenset({4, 5}))


def test_candidate_sets_single_parity_row():
    got = candidate_sets(BitMatrix([[1, 1, 1]]), 2, 2, mode=ROWS_ONLY)
    assert got == (frozenset({1, 3}),)


def test_candidate_sets_from_rows_of_widened_code():
    h = BitMatrix(XLRC_221_COMPLEMENT)
    got = candidate_sets(h, 1, 5, mode=ROWS_ONLY)
    assert set(got) == {frozenset({2, 5, 6, 9, 10}), frozenset({2, 3, 4, 7, 8})}


def test_rows_only_candidates_are_a_subset_of_the_dual():
    h = build_wzl(5, 2).H
    rows_only = candidate_sets(h, 1, 5, mode=ROWS_ONLY)
    full = candidate_sets(h, 1, 5, mode=DUAL_ENUM)
    assert set(rows_only) <= set(full)


def test_candidate_sets_dual_enumeration_finds_combinations():
    h = BitMatrix(WZL_42_INCIDENCE)
    rows_only = candidate_sets(h, 1, 4, mode=ROWS_ONLY)
    full = candidate_sets(h, 1, 4, mode=DUAL_ENUM)
    assert set(rows_only) <= set(full)
    assert frozenset({3, 4, 6}) in full  # rows 1 and 3 combined: support {1,3,4,6}
    for s in full:
        word = recovery_parity_word(h, 0, [e - 1 for e in s])
        assert word is not None


def test_candidate_sets_respect_size_budget():
    h = BitMatrix(WZL_42_INCIDENCE)
    for s in candidate_sets(h, 3, 3, mode=DUAL_ENUM):
        assert len(s) <= 3
        assert 3 not in s


def _mixed_sparse_matrix(n, seed, rows=10, weight=4):
    """Sparse rows on n columns, mixed by a unit lower-triangular matrix (so
    the first row stays sparse) and column-permuted."""
    rng = np.random.default_rng(seed)
    base = np.zeros((rows, n), dtype=np.int64)
    for k in range(rows):
        base[k, rng.choice(n, size=weight, replace=False)] = 1
    lower = rng.integers(0, 2, (rows, rows)) & rng.integers(0, 2, (rows, rows))
    mixing = np.tril(lower, -1) + np.eye(rows, dtype=np.int64)
    return BitMatrix(((mixing @ base) % 2)[:, rng.permutation(n)])


@pytest.mark.parametrize("n", [63, 64, 65, 105])
def test_candidate_sets_match_brute_force_across_limbs(n):
    h = _mixed_sparse_matrix(n, seed=n)
    coords = {1, 63, 64, 65, n} | {j + 1 for j in np.flatnonzero(h.array[0]).tolist()}
    for mode in (ROWS_ONLY, BOUNDED_COMBOS, DUAL_ENUM):
        seen = 0
        for i in sorted(c for c in coords if c <= n):
            got = candidate_sets(h, i, 7, mode=mode)
            assert got == candidates_by_brute_force(h, i, 7, mode)
            seen += len(got)
        assert seen > 0


def test_candidate_sets_auto_is_the_resolved_mode():
    code = build_xlrc(5, 3, 0)
    rows = code.H.rows
    rng = np.random.default_rng(56)
    mixing = np.tril(rng.integers(0, 2, (rows, rows)), -1) + np.eye(rows, dtype=int)
    mixed = BitMatrix((mixing @ code.H.array) % 2)
    resolved = set()
    for h, r in ((BitMatrix(WZL_42_INCIDENCE), 4), (mixed, 5)):
        mode = resolve_search_mode(h, AUTO)
        resolved.add(mode)
        auto = [candidate_sets(h, i, r, AUTO) for i in range(1, h.cols + 1)]
        assert auto == [candidate_sets(h, i, r, mode) for i in range(1, h.cols + 1)]
        # The resolved mode sees words the rows alone do not.
        assert auto != [candidate_sets(h, i, r, ROWS_ONLY) for i in range(1, h.cols + 1)]
    assert resolved == {DUAL_ENUM, BOUNDED_COMBOS}


def test_candidate_sets_rejects_unknown_mode():
    with pytest.raises(InvalidParams):
        candidate_sets(BitMatrix(WZL_42_INCIDENCE), 1, 2, mode="every-word")


def test_dual_enum_refuses_rank_above_cap_before_enumerating(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("dual words enumerated past the rank cap")

    monkeypatch.setattr(verifier, "_sum_blocks", no_enumeration)
    # r = 2 would sum a few reduced rows, r = 20 all of them.
    for r in (2, 20):
        with pytest.raises(DimensionTooLarge):
            candidate_sets(BitMatrix(np.eye(21, dtype=np.uint8)), 1, r, mode=DUAL_ENUM)


def test_resolve_search_mode():
    small = BitMatrix(WZL_42_INCIDENCE)
    assert resolve_search_mode(small, AUTO) == DUAL_ENUM
    assert resolve_search_mode(small, ROWS_ONLY) == ROWS_ONLY
    big = BitMatrix(np.eye(21, dtype=np.uint8))
    assert resolve_search_mode(big, AUTO) == BOUNDED_COMBOS


def test_discover_family_on_plain_code():
    h = BitMatrix(WZL_42_INCIDENCE)
    family = discover_family(h, 2, 2, 0)
    report = verify_family(h, family, 2, 2, 0, deep=True)
    assert report.ok
    assert report.deep_checked


def test_discover_family_exhausts_and_reports_coordinate():
    h = BitMatrix(WZL_42_INCIDENCE)
    with pytest.raises(FamilyNotFound) as exc_info:
        discover_family(h, 1, 2, 0)
    assert exc_info.value.coordinate == 1
    assert exc_info.value.exhaustive is True


def test_discover_family_on_single_parity_check():
    h = BitMatrix([[1, 1, 1, 1]])
    family = discover_family(h, 3, 1, 0)
    for i in range(1, 5):
        expected = frozenset(range(1, 5)) - {i}
        assert family.sets_by_coordinate[i - 1] == (expected,)


def test_coordinate_fixed_at_zero_takes_sets_from_heavier_words():
    # The row 0100 is a dual word of weight 1: coordinate 2 is 0 in every
    # codeword. The empty set it would give is no recovering set, so
    # coordinate 2 takes {1, 3, 4} from the word 1111 = 0100 + 1011.
    h = BitMatrix([[0, 1, 0, 0], [1, 0, 1, 1]])
    assert candidate_sets(h, 2, 3, mode=DUAL_ENUM) == (frozenset({1, 3, 4}),)
    assert candidate_sets(h, 2, 3, mode=ROWS_ONLY) == ()
    family = discover_family(h, 3, 1, 0)
    assert family.sets_by_coordinate == (
        (frozenset({2, 3, 4}),),
        (frozenset({1, 3, 4}),),
        (frozenset({1, 2, 4}),),
        (frozenset({1, 2, 3}),),
    )
    assert verify_family(h, family, 3, 1, 0).ok


@st.composite
def _small_codes(draw):
    """A random H of up to 6 rows and 12 columns, zero rows and columns
    allowed, with (r, t, x) for r <= 4, t <= 3 and x <= min(r, 2)."""
    n = draw(st.integers(2, 12))
    rows = draw(st.integers(1, 6))
    bits = draw(st.lists(st.integers(0, 1), min_size=rows * n, max_size=rows * n))
    r = draw(st.integers(1, 4))
    params = (r, draw(st.integers(1, 3)), draw(st.integers(0, min(r, 2))))
    return BitMatrix(np.array(bits, dtype=np.uint8).reshape(rows, n)), params


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(_small_codes())
def test_exhaustive_discovery_raises_only_family_not_found(code):
    # A dual word of weight 1 is common on such matrices. Discovery either
    # finds a family that verifies or says that none exists; it never
    # builds a family the constructor refuses. A code with a family obeys
    # both rate bounds: R*, a theorem for t <= 3, and 1 - E, the expected
    # uncolored fraction of the family's coloring experiment.
    h, (r, t, x) = code
    try:
        family = discover_family(h, r, t, x, mode=DUAL_ENUM)
    except FamilyNotFound as exc:
        assert exc.exhaustive
        return
    assert verify_family(h, family, r, t, x).ok
    rate = Fraction(h.cols - rank(h), h.cols)
    assert rate <= rate_upper(r, t, x)
    assert rate <= 1 - exhaustive_expected_fraction(build_graph(family), family)


def test_discover_family_rejects_excess_availability():
    h = BitMatrix(WZL_42_INCIDENCE)
    with pytest.raises(FamilyNotFound):
        discover_family(h, 2, 3, 0)


def test_verification_is_monotone_in_thresholds():
    h = BitMatrix(XLRC_221_COMPLEMENT)
    family = discover_family(h, 5, 2, 1)
    for extra_r in range(3):
        for extra_x in range(3):
            assert verify_family(h, family, 5 + extra_r, 2, 1 + extra_x).ok


def test_discover_family_reuses_sets_when_overlap_allows():
    # n=2 repetition code: the single helper set {2} may serve twice at x=1
    h = BitMatrix([[1, 1]])
    family = discover_family(h, 1, 2, 1)
    assert family.sets_by_coordinate[0] == (frozenset({2}), frozenset({2}))
    assert verify_family(h, family, 1, 2, 1).ok


def test_pick_sets_matches_enumeration():
    # Seeded lists of at most 7 distinct sets over at most 8 elements, in
    # no particular order.
    rng = np.random.default_rng(33)
    outcomes = set()
    for _ in range(600):
        ground = int(rng.integers(1, 9))
        cands = []
        for _ in range(int(rng.integers(0, 8))):
            s = frozenset(int(e) + 1 for e in np.flatnonzero(rng.integers(0, 2, ground)))
            if s and s not in cands:
                cands.append(s)
        t, x = int(rng.integers(1, 5)), int(rng.integers(0, 4))
        got = verifier._pick_sets(tuple(cands), t, x)
        assert got == pick_sets_by_enumeration(cands, t, x)
        outcomes.add(None if got is None else len(set(got)) < t)
    # Lists with no legal pick, and picks with and without a repeat.
    assert outcomes == {None, True, False}


def test_discover_family_repeats_a_set_past_the_recursion_limit():
    # Every candidate has at most r = 5 = x members, so each coordinate's
    # first candidate may fill all t slots, t far past the recursion limit.
    h = build_xlrc(2, 2, 1).H
    family = discover_family(h, 5, 1200, 5)
    for i, sets in enumerate(family.sets_by_coordinate, start=1):
        assert sets == (candidate_sets(h, i, 5, AUTO)[0],) * 1200


def _with_first_coordinate(base, replacement):
    sets = list(base.sets_by_coordinate)
    sets[0] = tuple(frozenset(s) for s in replacement)
    return RecoveringFamily(n=base.n, sets_by_coordinate=tuple(sets))


def test_verify_family_counts_sets():
    h = BitMatrix(WZL_42_INCIDENCE)
    base = discover_family(h, 2, 2, 0)
    family = _with_first_coordinate(base, [{2, 3}])
    report = verify_family(h, family, 2, 2, 0)
    assert not report.ok
    assert report.failures == ((1, "expected 2 recovering sets, found 1"),)


def test_verify_family_flags_oversized_sets():
    h = BitMatrix(WZL_42_INCIDENCE)
    family = discover_family(h, 2, 2, 0)
    report = verify_family(h, family, 1, 2, 0)
    assert not report.ok
    assert any("size 2 > r=1" in reason for _, reason in report.failures)


def test_verify_family_flags_overlap():
    code = build_xlrc(2, 2, 1, convention="complement")
    family = canonical_family(code)
    report = verify_family(code.H, family, 5, 2, 0)
    assert not report.ok
    assert all("intersect in 1 > x=0" in reason for _, reason in report.failures)
    assert len(report.failures) == 12


@pytest.mark.parametrize(
    "h",
    [
        BitMatrix(np.ones((1, 4), dtype=np.uint8)),
        BitMatrix(np.eye(4, dtype=np.uint8)),
        BitMatrix([[1, 1, 0, 0], [0, 0, 1, 1]]),
    ],
    ids=["parity", "identity", "pairs"],
)
def test_verify_family_overlaps_are_the_largest_pairwise_intersection(h):
    """0, 1, 2 and 3 sets per coordinate; the overlaps depend on the family
    alone, whatever H and the thresholds."""
    family = _family(4, [[], [{1}], [{1, 4}, {4}], [{1, 2, 3}, {1, 2}, {3}]])
    brute = tuple(
        max((len(a & b) for a, b in combinations(sets, 2)), default=0)
        for sets in family.sets_by_coordinate
    )
    assert brute == (0, 0, 1, 2)
    for r, t, x in ((1, 1, 0), (3, 3, 2)):
        assert verify_family(h, family, r, t, x).overlaps == brute


# Sets of sizes 1, 2, 3 and 5 repeated, interleaved with other sets.
REPEATS = _family(
    6,
    [
        [{2, 3}, {2, 3}, {4}, {2, 3}, {4, 5, 6}],
        [{1}, {1}, {1}],
        [{1, 2, 4}, {5}, {1, 2, 4}, {1, 2, 5}],
        [],
        [{6}],
        [{1, 2, 3, 4, 5}] * 3 + [{1}],
    ],
)


@pytest.mark.parametrize("x", [0, 1, 2, 3, 5])
def test_verify_family_overlaps_match_every_pair_of_repeated_sets(x):
    """Against comparing every pair of positions, repeats included, with
    repeated sets both within x and past it."""
    h = BitMatrix(np.ones((1, 6), dtype=np.uint8))
    overlaps, failures = [], []
    for i, sets in enumerate(REPEATS.sets_by_coordinate, start=1):
        inters = [(a, b, len(sets[a] & sets[b])) for a, b in combinations(range(len(sets)), 2)]
        overlaps.append(max((inter for _, _, inter in inters), default=0))
        failures += [
            (i, f"sets {a + 1} and {b + 1} intersect in {inter} > x={x}")
            for a, b, inter in inters
            if inter > x
        ]
    report = verify_family(h, REPEATS, 5, 2, x)
    assert report.overlaps == tuple(overlaps) == (2, 1, 3, 0, 0, 5)
    assert [f for f in report.failures if "intersect" in f[1]] == sorted(failures)
    assert len(failures) == {0: 17, 1: 9, 2: 4, 3: 3, 5: 0}[x]


def test_verify_family_flags_unrecoverable_set():
    h = BitMatrix(WZL_42_INCIDENCE)
    base = discover_family(h, 2, 2, 0)
    family = _with_first_coordinate(base, [{2}, {4, 5}])
    report = verify_family(h, family, 2, 2, 0)
    bad = [reason for i, reason in report.failures if i == 1]
    assert bad == ["set 1 admits no parity word through 1"]


def test_verify_family_rejects_length_mismatch():
    h = BitMatrix(WZL_42_INCIDENCE)
    family = _family(5, [[{2}], [{1}], [{1}], [{1}], [{1}]])
    with pytest.raises(InvalidParams):
        verify_family(h, family, 2, 2, 0)


def test_equal_content_shares_one_realizing_table():
    code = build_xlrc(2, 2, 1)
    sets = canonical_family(code).sets_by_coordinate
    h1, h2 = BitMatrix(code.H.array), BitMatrix(code.H.array.tolist())
    f1 = RecoveringFamily(n=code.H.cols, sets_by_coordinate=sets)
    f2 = _family(code.H.cols, [[sorted(s) for s in per] for per in sets])
    assert h1 is not h2 and f1 is not f2
    assert h1 == h2 and hash(h1) == hash(h2)
    assert f1 == f2 and hash(f1) == hash(f2)
    verifier._realizing_helpers(h1, f1)
    before = verifier._realizing_helpers.cache_info()
    verify_family(h2, f2, 5, 2, 1)
    after = verifier._realizing_helpers.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    # One set differs: the family is another key.
    changed = list(sets)
    changed[0] = (changed[0][0] - {min(changed[0][0])},) + changed[0][1:]
    f3 = RecoveringFamily(n=code.H.cols, sets_by_coordinate=tuple(changed))
    assert f3 != f1
    verify_family(h2, f3, 5, 2, 1)
    assert verifier._realizing_helpers.cache_info().misses == before.misses + 1


def test_discovered_family_matches_canonical_sets():
    code = build_xlrc(2, 2, 1)
    found = discover_family(code.H, 5, 2, 1)
    expected = canonical_family(code)
    for got, want in zip(found.sets_by_coordinate, expected.sets_by_coordinate):
        assert set(got) == set(want)


def test_deep_check_equals_pairwise_oracle():
    code = build_xlrc(2, 2, 1, convention="complement")
    family = canonical_family(code)
    for i, sets in enumerate(family.sets_by_coordinate, start=1):
        for s in sets:
            structural = recovery_parity_word(
                code.H, i - 1, [e - 1 for e in s]
            ) is not None
            assert structural == recoverable_by_pairs(code.H, i, s)
            assert structural


def test_deep_check_flags_bad_set():
    h = BitMatrix(WZL_42_INCIDENCE)
    base = discover_family(h, 2, 2, 0)
    family = _with_first_coordinate(base, [{2}, {4, 5}])
    report = verify_family(h, family, 2, 2, 0, deep=True)
    assert report.deep_checked
    # One defect, one entry: the separation verdict is the structural one.
    assert report.failures == ((1, "set 1 admits no parity word through 1"),)
    assert not recoverable_by_pairs(h, 1, {2})


def test_deep_check_skipped_above_cap():
    code = build_xlrc(5, 3, 0)
    p = code.params
    assert (p.n, p.k) == (56, 35)
    assert p.k > verifier.DEEP_CHECK_DIM_CAP
    report = verify_family(code.H, canonical_family(code), p.r, p.t, p.x, deep=True)
    assert report.ok
    assert not report.deep_checked


def test_structural_matches_oracle_on_random_subsets():
    h = build_wzl(5, 2).H
    from itertools import combinations

    coords = range(1, 11)
    for i in (1, 4, 10):
        others = [c for c in coords if c != i]
        for s in combinations(others, 3):
            structural = recovery_parity_word(h, i - 1, [e - 1 for e in s]) is not None
            assert structural == recoverable_by_pairs(h, i, frozenset(s))


def test_deep_check_across_limb_boundary():
    # Systematic code [I | A] with k=12, n=80: every check reads two message
    # bits, so each row of H = [A^T | I] has weight 3.
    rng = np.random.default_rng(80)
    k, n = 12, 80
    a = np.zeros((k, n - k), dtype=np.uint8)
    for j in range(n - k):
        a[rng.choice(k, size=2, replace=False), j] = 1
    assert a.any(axis=1).all()
    perm = rng.permutation(n)
    g = np.hstack([np.eye(k, dtype=np.uint8), a])[:, perm]
    h = BitMatrix(np.hstack([a.T, np.eye(n - k, dtype=np.uint8)])[:, perm])
    supports = [tuple(np.flatnonzero(row).tolist()) for row in h.array]
    sets = [
        (frozenset(j + 1 for j in next(s for s in supports if c in s) if j != c),)
        for c in range(n)
    ]
    # A row whose two other members straddle bit 64 gives the good set; the
    # bad set swaps its high member for an unrelated column above bit 64.
    good_i, low, high = next(
        (c, lo, hi)
        for s in supports
        for c in s
        for lo, hi in [sorted(set(s) - {c})]
        if lo < 64 <= hi
    )
    bad_i = next(c for c in range(n) if c not in (good_i, low, high))
    other = next(c for c in range(64, n) if c not in (good_i, low, high, bad_i))
    sets[good_i] = (frozenset({low + 1, high + 1}),)
    sets[bad_i] = (frozenset({low + 1, other + 1}),)
    family = RecoveringFamily(n=n, sets_by_coordinate=tuple(sets))

    report = verify_family(h, family, 2, 1, 0, deep=True)
    assert report.deep_checked
    flagged = {i for i, reason in report.failures if "admits no parity word" in reason}
    assert flagged == {bad_i + 1}
    words = span_by_brute_force(g)
    for i, (s,) in enumerate(family.sets_by_coordinate, start=1):
        assert separated_by(words, i, s) == (i not in flagged)


@pytest.mark.parametrize(
    "spec", [(1, 2, 1), (1, 3, 1), (2, 3, 0), (2, 2, 1), (1, 3, 3), (2, 3, 1), (4, 3, 0)]
)
def test_deep_failures_pair_with_structural_on_cut_families(spec):
    code = build_xlrc(*spec)
    p = code.params
    assert p.k <= verifier.DEEP_CHECK_DIM_CAP
    rng = np.random.default_rng((31, *spec))
    sets = [list(s) for s in canonical_family(code).sets_by_coordinate]
    for i in rng.choice(p.n, size=max(1, p.n // 3), replace=False):
        members = sorted(sets[i][0])
        sets[i][0] = frozenset(members) - {members[rng.integers(len(members))]}
    family = RecoveringFamily(n=p.n, sets_by_coordinate=tuple(map(tuple, sets)))

    report = verify_family(code.H, family, p.r, p.t, p.x, deep=True)
    assert report.deep_checked
    # deep adds no entries: each cut set is reported once, structurally.
    assert report.failures == verify_family(code.H, family, p.r, p.t, p.x).failures
    structural = [
        (i, j)
        for i, text in report.failures
        for j in range(1, p.t + 1)
        if text == f"set {j} admits no parity word through {i}"
    ]
    assert structural
    if p.n <= 16:
        words = codewords_by_brute_force(code.H)
        for i, sets_i in enumerate(family.sets_by_coordinate, start=1):
            for j, s in enumerate(sets_i, start=1):
                assert separated_by(words, i, s) == ((i, j) not in structural)
