import tracemalloc
from fractions import Fraction
from itertools import permutations
from math import factorial

import numpy as np
import pytest

from lrckit import (
    ColoringOutcome,
    InvalidParams,
    RecoveringFamily,
    build_graph,
    build_wzl,
    build_xlrc,
    canonical_family,
    color_vertices,
    discover_family,
    exhaustive_expected_fraction,
    f_value,
    map_params,
    monte_carlo_colored_fraction,
    structural_check,
    structural_sweep,
    trial_permutation,
)
from lrckit import recovery_graph
from lrckit.recovery_graph import (
    _colors,
    _member_table,
    _trial_ranks,
    _walks_descend,
)
from oracles import (
    colors_by_rule,
    expected_colored_fraction_by_permutations,
    expected_colored_fraction_by_simulation,
    members_by_color,
    monte_carlo_by_rule,
    mono_walks_acyclic,
    seeded_permutation,
    sweep_by_subsets,
)

# Unequal numbers of sets, unequal set sizes, and vertex 3 with no sets.
RAGGED = RecoveringFamily(
    n=7,
    sets_by_coordinate=(
        (frozenset({2}), frozenset({3, 4, 5})),
        (frozenset({1, 3, 6, 7}),),
        (),
        (frozenset({1}), frozenset({2}), frozenset({3, 5, 6})),
        (frozenset({6, 7}),),
        (frozenset({5}), frozenset({1, 7})),
        (frozenset({1, 2, 3, 4, 5, 6}),),
    ),
)


def _ragged_224() -> RecoveringFamily:
    """xlrc(5,3,3)'s canonical family with seeded damage: some vertices lose
    every set, some lose their last set, some sets lose members."""
    rng = np.random.default_rng(31)
    sets_by_coordinate = []
    for sets in canonical_family(build_xlrc(5, 3, 3)).sets_by_coordinate:
        cut = rng.integers(0, 4)
        if cut == 0:
            sets = ()
        elif cut == 1:
            sets = sets[:-1]
        elif cut == 2:
            sets = tuple(frozenset(sorted(s)[: rng.integers(1, len(s) + 1)]) for s in sets)
        sets_by_coordinate.append(tuple(sets))
    assert {len(sets) for sets in sets_by_coordinate} == {0, 2, 3}
    return RecoveringFamily(n=224, sets_by_coordinate=tuple(sets_by_coordinate))


RAGGED_224 = _ragged_224()


def _small_setup():
    code = build_xlrc(1, 2, 1)
    family = canonical_family(code)
    return code, family, build_graph(family)


def test_build_graph_shape():
    _, _, graph = _small_setup()
    assert (graph.n, graph.t) == (6, 2)
    ragged = build_graph(RAGGED)
    assert (ragged.n, ragged.t) == (7, 3)


def test_build_graph_requires_sets():
    empty = RecoveringFamily(n=2, sets_by_coordinate=((), ()))
    with pytest.raises(InvalidParams):
        build_graph(empty)


def test_vertex_degrees_disjoint_sets():
    h = build_wzl(4, 2).H
    sets = discover_family(h, 2, 2, 0).sets_by_coordinate
    for v in range(1, 7):
        assert len(frozenset().union(*sets[v - 1])) == 4
        assert sum(any(v in s for s in sets_i) for sets_i in sets) == 4


def test_vertex_degrees_intersecting_sets():
    code = build_xlrc(2, 2, 1, convention="complement")
    sets = canonical_family(code).sets_by_coordinate
    for v in range(1, 13):
        # two size-5 sets meeting in one coordinate: 10 colored edges, 9 targets
        assert sum(len(s) for s in sets[v - 1]) == 10
        assert len(frozenset().union(*sets[v - 1])) == 9


def test_color_vertices_identity_permutation():
    _, family, graph = _small_setup()
    outcome = color_vertices(graph, family, range(1, 7))
    # under ranks 1..6 a vertex is colored iff some set lies entirely below it
    for v, color in enumerate(outcome.colors, start=1):
        sets = family.sets_by_coordinate[v - 1]
        expected = None
        for l, s in enumerate(sets, start=1):
            if all(m < v for m in s):
                expected = l
                break
        assert color == expected


def test_rank_extremes():
    # the rank-1 vertex can never outrank a nonempty set; rank-n always can
    for family in (
        canonical_family(build_xlrc(1, 2, 1)),
        discover_family(build_wzl(4, 2).H, 2, 2, 0),
    ):
        graph = build_graph(family)
        n = family.n
        for k in range(8):
            tau = trial_permutation(42, k, n)
            outcome = color_vertices(graph, family, tau)
            lowest = int(np.argmin(tau)) + 1
            highest = int(np.argmax(tau)) + 1
            assert outcome.colors[lowest - 1] is None
            assert outcome.colors[highest - 1] is not None


def test_color_vertices_rejects_bad_permutation():
    _, family, graph = _small_setup()
    with pytest.raises(InvalidParams):
        color_vertices(graph, family, [1, 2, 3, 4, 5, 5])
    with pytest.raises(InvalidParams):
        color_vertices(graph, family, [0, 1, 2, 3, 4, 5])
    with pytest.raises(InvalidParams):
        color_vertices(graph, family, [1, 2, 3])


def test_color_vertices_rejects_non_integer_entries():
    family = canonical_family(build_xlrc(2, 2, 1))
    graph = build_graph(family)
    for first in (1.4, 1.0, "1", None):
        with pytest.raises(InvalidParams, match="permutation entry must be"):
            color_vertices(graph, family, [first, *range(2, 13)])
    entries = [np.int64(v) for v in range(1, 13)]
    outcome = color_vertices(graph, family, entries)
    assert outcome == color_vertices(graph, family, list(range(1, 13)))
    assert all(type(v) is int for v in outcome.permutation)


def test_frozen_coloring_outcome():
    _, family, graph = _small_setup()
    outcome = color_vertices(graph, family, trial_permutation(0, 0, 6))
    assert outcome.colors == (2, None, 1, None, None, None)
    assert outcome.colored == frozenset({1, 3})


def test_structural_check_on_colored_subsets():
    _, family, graph = _small_setup()
    outcome = color_vertices(graph, family, trial_permutation(0, 0, 6))
    assert structural_check(graph, family, outcome, outcome.colored)
    assert structural_check(graph, family, outcome, frozenset({1}))
    with pytest.raises(InvalidParams):
        structural_check(graph, family, outcome, frozenset({2}))


def test_structural_check_detects_saturated_subset():
    # a subset keeping every color of every vertex can never come from a
    # real coloring (vertices 1 and 2 would need to outrank each other), so
    # exercise the negative branch with a hand-built outcome
    family = RecoveringFamily(
        n=3,
        sets_by_coordinate=(
            (frozenset({2}), frozenset({2, 3})),
            (frozenset({1}), frozenset({1, 3})),
            (frozenset({1}), frozenset({2})),
        ),
    )
    graph = build_graph(family)
    fake = ColoringOutcome(
        permutation=(1, 2, 3), colors=(1, 1, None), colored=frozenset({1, 2})
    )
    assert not structural_check(graph, family, fake, frozenset({1, 2}))
    for real in permutations(range(1, 4)):
        outcome = color_vertices(graph, family, real)
        assert not outcome.colored >= {1, 2}


@pytest.mark.parametrize(
    "family,perms",
    [
        (discover_family(build_wzl(4, 2).H, 2, 2, 0), 20),
        (canonical_family(build_xlrc(2, 2, 1, convention="complement")), 5),
    ],
    ids=["n6", "n12"],
)
def test_structural_check_subset_sweep(family, perms):
    graph = build_graph(family)
    for k in range(perms):
        outcome = color_vertices(graph, family, trial_permutation(7, k, family.n))
        assert sweep_by_subsets(graph, family, outcome)


def test_trial_permutation_contract():
    a = trial_permutation(5, 9, 8)
    b = trial_permutation(5, 9, 8)
    assert np.array_equal(a, b)
    assert sorted(a) == list(range(1, 9))
    c = trial_permutation(5, 10, 8)
    assert not np.array_equal(a, c)


def test_monte_carlo_deterministic_small_code():
    _, family, graph = _small_setup()
    stats = monte_carlo_colored_fraction(graph, family, 400, 3)
    # this code colors exactly two of six vertices under every permutation
    assert stats.mean == pytest.approx(1 / 3, abs=0)
    assert stats.stderr == 0.0
    assert stats.trials == 400
    assert stats.walk_failures == 0


def test_monte_carlo_requires_two_trials():
    _, family, graph = _small_setup()
    with pytest.raises(InvalidParams):
        monte_carlo_colored_fraction(graph, family, 1, 0)


def test_monte_carlo_agrees_with_naive_simulation():
    h = build_wzl(4, 2).H
    family = discover_family(h, 2, 2, 0)
    graph = build_graph(family)
    stats = monte_carlo_colored_fraction(graph, family, 4000, 17)
    naive = expected_colored_fraction_by_simulation(
        family.sets_by_coordinate, 6, 4000, 99
    )
    assert stats.mean == pytest.approx(naive, abs=0.03)


def test_exhaustive_expectation_values():
    _, family, graph = _small_setup()
    assert exhaustive_expected_fraction(graph, family) == Fraction(1, 3)
    assert f_value(3, 2, 1) == Fraction(1, 3)

    h = build_wzl(4, 2).H
    fam = discover_family(h, 2, 2, 0)
    g = build_graph(fam)
    exact = exhaustive_expected_fraction(g, fam)
    assert exact >= f_value(2, 2, 0)


def test_exhaustive_expectation_tiny_families():
    # one full-complement set per vertex: only the rank maximum is colored
    ring = RecoveringFamily(
        n=3,
        sets_by_coordinate=(
            (frozenset({2, 3}),),
            (frozenset({1, 3}),),
            (frozenset({1, 2}),),
        ),
    )
    value = exhaustive_expected_fraction(build_graph(ring), ring)
    assert value == Fraction(1, 3)
    assert value == f_value(2, 1, 0)

    swap = RecoveringFamily(
        n=2, sets_by_coordinate=((frozenset({2}),), (frozenset({1}),))
    )
    assert exhaustive_expected_fraction(build_graph(swap), swap) == Fraction(1, 2)


def test_exhaustive_expectation_cap():
    # no cap on n: wzl(5,2) has n = 10 and two disjoint sets of size 3 per
    # coordinate, so every union has size 3j and E is exactly f(3, 2, 0)
    h = build_wzl(5, 2).H
    family = discover_family(h, 3, 2, 0)
    graph = build_graph(family)
    assert graph.n == 10
    assert exhaustive_expected_fraction(graph, family) == f_value(3, 2, 0)


def _random_family(rng, n: int, sets_per_vertex: int | None = None) -> RecoveringFamily:
    """A seeded family: 0 to 3 sets per vertex unless given, of mixed sizes,
    some repeating an earlier set of the same vertex; at least one set."""
    sets_by_coordinate = []
    for v in range(1, n + 1):
        others = [u for u in range(1, n + 1) if u != v]
        sets = []
        count = rng.integers(0, 4) if sets_per_vertex is None else sets_per_vertex
        for _ in range(count):
            if sets and rng.random() < 0.2:
                sets.append(sets[rng.integers(len(sets))])
            else:
                size = rng.integers(1, len(others) + 1)
                sets.append(frozenset(int(u) for u in rng.choice(others, size, replace=False)))
        sets_by_coordinate.append(tuple(sets))
    if not any(sets_by_coordinate):
        sets_by_coordinate[0] = (frozenset({2}),)
    return RecoveringFamily(n=n, sets_by_coordinate=tuple(sets_by_coordinate))


def test_closed_form_expectation_matches_permutation_oracle():
    rng = np.random.default_rng(2016)
    families = [_random_family(rng, int(rng.integers(2, 8))) for _ in range(240)]
    all_sets = [fam.sets_by_coordinate for fam in families]
    assert any(() in sets for sets in all_sets)
    assert any(len(set(s)) < len(s) for sets in all_sets for s in sets)
    assert any(len({len(m) for m in s}) > 1 for sets in all_sets for s in sets)
    for family in families:
        exact = exhaustive_expected_fraction(build_graph(family), family)
        assert exact == expected_colored_fraction_by_permutations(family), family


# xlrc grid codes with n <= 12, as (seed r, seed t, widening x)
SMALL_GRID = [
    (rr, tt, x)
    for rr in range(1, 6)
    for tt in range(1, 4)
    for x in range(4)
    if map_params(rr, tt, x).n <= 12
]


@pytest.mark.parametrize("rr, tt, x", SMALL_GRID)
def test_peel_matches_subset_oracle_on_colorings(rr, tt, x):
    family = canonical_family(build_xlrc(rr, tt, x))
    graph = build_graph(family)
    for k in range(20):
        outcome = color_vertices(graph, family, trial_permutation(3, k, family.n))
        assert structural_sweep(family, outcome) == sweep_by_subsets(graph, family, outcome)
        assert structural_sweep(family, outcome)


def test_peel_matches_subset_oracle_on_arbitrary_subsets():
    # subsets no ranking colors, on ragged families and on families with t
    # sets at every vertex: the peel must fail exactly where some subset is
    # saturated
    rng = np.random.default_rng(1007)
    verdicts = []
    for case in range(600):
        n = int(rng.integers(2, 11))
        family = _random_family(rng, n, None if case % 2 else 1 + case % 3)
        subset = frozenset(int(v) for v in np.flatnonzero(rng.random(n) < 0.6) + 1)
        fake = ColoringOutcome(
            permutation=tuple(range(1, n + 1)),
            colors=tuple(1 if v in subset else None for v in range(1, n + 1)),
            colored=subset,
        )
        verdict = structural_sweep(family, fake)
        assert verdict == sweep_by_subsets(build_graph(family), family, fake)
        verdicts.append(verdict)
    assert 0 < verdicts.count(False) < len(verdicts)


def test_structural_sweep_rejects_outcome_of_other_n():
    _, family, graph = _small_setup()
    outcome = color_vertices(graph, family, trial_permutation(0, 0, 6))
    with pytest.raises(InvalidParams):
        structural_sweep(RAGGED, outcome)


def test_monochromatic_walk_cycle_detection():
    # vertices 1 and 2 recover each other; both colored would need each to
    # outrank the other, which the descent check rejects like the DFS does
    family = RecoveringFamily(
        n=2,
        sets_by_coordinate=((frozenset({2}),), (frozenset({1}),)),
    )
    table = _member_table(family)
    members = members_by_color(family.sets_by_coordinate)
    for ranks, colors, acyclic in (
        ((1, 2), (1, 1), False),
        ((2, 1), (1, 1), False),
        ((2, 1), (1, 0), True),
        ((1, 2), (0, 0), True),
    ):
        walks = _walks_descend(table, np.array([ranks]), np.array([colors]))
        assert walks.tolist() == [acyclic]
        assert mono_walks_acyclic(members, [c or None for c in colors]) is acyclic


def test_walk_failures_count_broken_colorings(monkeypatch):
    # a kernel that colors every vertex with color 1 breaks descent on every
    # trial of the two-vertex swap family
    family = RecoveringFamily(
        n=2, sets_by_coordinate=((frozenset({2}),), (frozenset({1}),))
    )
    monkeypatch.setattr(
        recovery_graph, "_colors", lambda table, ranks: np.ones_like(ranks)
    )
    stats = monte_carlo_colored_fraction(build_graph(family), family, 50, 0)
    assert stats.walk_failures == 50


@pytest.mark.parametrize(
    "family",
    [canonical_family(build_xlrc(5, 3, 3)), RAGGED],
    ids=["n224", "ragged"],
)
def test_color_vertices_matches_rule(family):
    graph = build_graph(family)
    for k in range(40):
        tau = trial_permutation(11, k, family.n)
        outcome = color_vertices(graph, family, tau)
        assert list(outcome.colors) == colors_by_rule(family.sets_by_coordinate, tau)


def test_kernel_block_matches_rule():
    family = canonical_family(build_xlrc(2, 2, 1, convention="complement"))
    table = _member_table(family)
    ranks = np.stack([trial_permutation(5, k, family.n) for k in range(300)])
    colors = _colors(table, ranks)
    for row, tau in zip(colors, ranks):
        expected = colors_by_rule(family.sets_by_coordinate, tau)
        assert row.tolist() == [c or 0 for c in expected]


def test_exhaustive_expectation_ragged_family():
    n = RAGGED.n
    colored = 0
    for tau in permutations(range(1, n + 1)):
        colors = colors_by_rule(RAGGED.sets_by_coordinate, tau)
        colored += sum(c is not None for c in colors)
    expected = Fraction(colored, factorial(n) * n)
    assert exhaustive_expected_fraction(build_graph(RAGGED), RAGGED) == expected


@pytest.mark.parametrize(
    "family",
    [
        canonical_family(build_xlrc(2, 2, 1, convention="complement")),
        canonical_family(build_xlrc(5, 3, 3)),
        RAGGED,
        RAGGED_224,
    ],
    ids=["n12", "n224", "ragged", "ragged224"],
)
def test_walks_descend_agrees_with_dfs(family):
    table = _member_table(family)
    members = members_by_color(family.sets_by_coordinate)
    ranks = np.stack([trial_permutation(13, k, family.n) for k in range(60)])
    colors = _colors(table, ranks)
    assert _walks_descend(table, ranks, colors).all()
    for row in colors:
        assert mono_walks_acyclic(members, [int(c) or None for c in row])
    # colorings that ignore the rule: strict descent must imply acyclic walks,
    # and every cyclic coloring must fail the descent check
    rng = np.random.default_rng(21)
    counts = np.array([len(sets) for sets in family.sets_by_coordinate])
    fake = (rng.random(ranks.shape) * (counts + 1)).astype(np.int64)
    descend = _walks_descend(table, ranks, fake)
    cyclic = 0
    for row, ok in zip(fake, descend):
        acyclic = mono_walks_acyclic(members, [int(c) or None for c in row])
        cyclic += not acyclic
        assert acyclic or not ok
    assert cyclic > 0


@pytest.mark.parametrize("family", [RAGGED, RAGGED_224], ids=["ragged", "ragged224"])
def test_walks_descend_reads_every_member(family):
    # one colored vertex per row, ranked just above its own-color set, or
    # above all of that set but one member, which ranks just above it
    n = family.n
    table = _member_table(family)
    ranks, colors, expected = [], [], []
    with_sets = [v for v, sets in enumerate(family.sets_by_coordinate) if sets]
    for v in with_sets[:6]:
        for color, members in enumerate(family.sets_by_coordinate[v], start=1):
            for top in [None, *members]:
                order = [m - 1 for m in members if m != top] + [v]
                order += [top - 1] if top else []
                order += [u for u in range(n) if u not in order]
                row = np.empty(n, dtype=np.int64)
                row[order] = np.arange(1, n + 1)
                ranks.append(row)
                colors.append(np.where(np.arange(n) == v, color, 0))
                expected.append(top is None)
    for start in range(0, len(ranks), 16):
        got = _walks_descend(
            table, np.array(ranks[start : start + 16]), np.array(colors[start : start + 16])
        )
        assert got.tolist() == expected[start : start + 16]


def test_colorings_never_cycle():
    code = build_xlrc(2, 2, 1, convention="complement")
    family = canonical_family(code)
    graph = build_graph(family)
    stats = monte_carlo_colored_fraction(graph, family, 300, 123)
    assert stats.walk_failures == 0
    assert stats.mean >= float(f_value(5, 2, 1)) - 3 * stats.stderr


# Seeds of 1 to 4 uint32 words; 2**96 + 1 with k makes more entropy words
# than SeedSequence's pool of 4.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 1]


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 224])
@pytest.mark.parametrize("seed", SEEDS)
def test_trial_ranks_match_default_rng(monkeypatch, seed, n):
    # the spot check always passes, so every row comes from the fast path
    monkeypatch.setattr(recovery_graph, "_spot_check", lambda *args: True)
    for ks in (range(0, 40), range(2**32 - 3, 2**32 + 3), range(2**64 - 2, 2**64 + 1)):
        expected = np.stack([seeded_permutation(seed, k, n) for k in ks])
        assert np.array_equal(_trial_ranks(seed, ks, n), expected)


def test_trial_ranks_fall_back_when_the_stream_changes(monkeypatch):
    # a wrong PCG64 multiplier stands in for a numpy release that seeds
    # differently; the spot check must send every batch through default_rng,
    # also at n = 2, where a wrong row matches the right one half the time
    monkeypatch.setattr(recovery_graph, "_PCG_MULT", 3)
    ks = range(2**32 - 20, 2**32 + 20)
    for n in (2, 12):
        for seed in (0, 1, 5):
            expected = np.stack([seeded_permutation(seed, k, n) for k in ks])
            assert np.array_equal(_trial_ranks(seed, ks, n), expected)
    monkeypatch.setattr(recovery_graph, "_spot_check", lambda *args: True)
    assert not np.array_equal(_trial_ranks(5, ks, 12), expected)


@pytest.mark.parametrize(
    "family, trials, seed",
    [
        (canonical_family(build_xlrc(2, 2, 1, convention="complement")), 400, 0),
        (RAGGED, 900, 2**32 + 1),
        (RAGGED_224, 60, 8),
    ],
    ids=["n12", "ragged", "ragged224"],
)
@pytest.mark.parametrize("spot_check", ["real", "always-fails"])
def test_monte_carlo_matches_rule_oracle(monkeypatch, family, trials, seed, spot_check):
    if spot_check == "always-fails":
        monkeypatch.setattr(recovery_graph, "_spot_check", lambda *args: False)
    stats = monte_carlo_colored_fraction(build_graph(family), family, trials, seed)
    mean, stderr = monte_carlo_by_rule(family.sets_by_coordinate, family.n, trials, seed)
    assert (stats.mean.hex(), stats.stderr.hex()) == (mean.hex(), stderr.hex())
    assert (stats.trials, stats.walk_failures) == (trials, 0)


@pytest.mark.parametrize(
    "family, trials, seed",
    [
        (canonical_family(build_xlrc(2, 2, 1, convention="complement")), 690, 3),
        (RAGGED, 1175, 2**32 + 1),
        (RAGGED_224, 40, 8),
    ],
    ids=["n12", "ragged", "ragged224"],
)
@pytest.mark.parametrize("spot_check", ["real", "always-fails"])
def test_monte_carlo_does_not_depend_on_the_block_size(
    monkeypatch, family, trials, seed, spot_check
):
    # each trial count spans one default block and part of a second
    if spot_check == "always-fails":
        monkeypatch.setattr(recovery_graph, "_spot_check", lambda *args: False)
    graph = build_graph(family)

    def run():
        stats = monte_carlo_colored_fraction(graph, family, trials, seed)
        return stats.mean.hex(), stats.stderr.hex(), stats.walk_failures

    expected = run()
    for entries in (1, 7, family.n, 2**13, 2**16):
        monkeypatch.setattr(recovery_graph, "_BLOCK_ENTRIES", entries)
        assert run() == expected, entries


def test_monte_carlo_memory_is_flat_in_trials():
    family = canonical_family(build_xlrc(5, 3, 3))
    graph = build_graph(family)
    monte_carlo_colored_fraction(graph, family, 50, 0)
    peaks = []
    for trials in (200, 2000):
        tracemalloc.start()
        try:
            monte_carlo_colored_fraction(graph, family, trials, 0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2**20, peaks
    assert peaks[1] - peaks[0] < 64 * 2**10, peaks


def test_negative_seed_or_trial_is_invalid():
    _, family, graph = _small_setup()
    for seed, trial in ((-1, 0), (0, -1), (-(2**40), 3)):
        with pytest.raises(InvalidParams):
            trial_permutation(seed, trial, 6)
    with pytest.raises(InvalidParams):
        trial_permutation(0, 0, -1)
    with pytest.raises(InvalidParams):
        monte_carlo_colored_fraction(graph, family, 10, -1)
    # non-integral trials, seeds, trial indices and lengths
    for trials, seed in ((2.5, 0), (10, 0.5), (10, 1.0), (10, "0")):
        with pytest.raises(InvalidParams):
            monte_carlo_colored_fraction(graph, family, trials, seed)
    for seed, trial, n in ((0, 0, 2.5), (0, 1.0, 6), (1.5, 0, 6), (None, 0, 6)):
        with pytest.raises(InvalidParams):
            trial_permutation(seed, trial, n)
    assert issubclass(InvalidParams, ValueError)


@pytest.mark.parametrize(
    "family",
    [canonical_family(build_xlrc(2, 2, 1, convention="complement")), RAGGED],
    ids=["n12", "ragged"],
)
def test_member_table_built_once_per_family(family):
    graph = build_graph(family)
    taus = [trial_permutation(17, k, family.n) for k in range(20)]
    _member_table.cache_clear()
    outcomes = [color_vertices(graph, family, tau) for tau in taus]
    sweeps = [structural_sweep(family, outcome) for outcome in outcomes]
    stats = monte_carlo_colored_fraction(graph, family, 300, 4)
    info = _member_table.cache_info()
    assert (info.misses, info.maxsize) == (1, 64)
    # An equal family built afresh is the same key; the table is read-only.
    twin = RecoveringFamily(
        n=family.n,
        sets_by_coordinate=tuple(
            tuple(frozenset(sorted(s)) for s in sets) for sets in family.sets_by_coordinate
        ),
    )
    table = _member_table(twin)
    assert _member_table.cache_info().misses == 1
    with pytest.raises(ValueError):
        table[0, 0, 0] = 0
    # Results match the rule, the subset sweep, and a table built per call.
    mean, stderr = monte_carlo_by_rule(family.sets_by_coordinate, family.n, 300, 4)
    assert (stats.mean.hex(), stats.stderr.hex()) == (mean.hex(), stderr.hex())
    for tau, outcome, swept in zip(taus, outcomes, sweeps):
        assert list(outcome.colors) == colors_by_rule(family.sets_by_coordinate, tau)
        assert swept == sweep_by_subsets(graph, family, outcome)
        _member_table.cache_clear()
        assert color_vertices(graph, family, tau) == outcome
        _member_table.cache_clear()
        assert structural_sweep(family, outcome) is swept
    _member_table.cache_clear()
    assert monte_carlo_colored_fraction(graph, family, 300, 4) == stats
