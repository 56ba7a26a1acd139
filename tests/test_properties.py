"""Property tests against the oracles.

Repair, which keeps the last (matrix, family, codeword) it saw swept at
every coordinate, against the oracle that checks every call from scratch.
Each example draws two small matrices of one width, each with a family and
that family with each coordinate's sets reversed, and replays an
interleaved sequence of repairs on them. Between repairs the one codeword
array is re-encoded, flipped in place, given a non-bit entry or passed on
unchanged, and each call hands it over in one of several forms. Every
result, trace or error, must equal the oracle's.

Encoding and the packed parity test against the syndrome product, on
matrices with duplicate and zero rows: every encoded word passes, its
message sits at the free columns, and each flipped word fails exactly when
the product says so.

Coloring, which takes the maximum rank of each distinct closure S + {v}
once, against the rule read literally, and the walk check against a DFS
over the colored own-color edges. Each example draws a family mixing
groups G with sets G - {v} (closures shared across vertices), free random
sets, repeated sets, one-member sets and vertices with no sets.

The matrix file format: render_matrix writes the header and one line of
digits per row, parse_matrix reads it back, and a header line that is not
two positive ASCII integers is refused on line 1 whatever follows it.

Monte Carlo rank blocks, one Philox draw and one argsort per block, against
the oracle that draws each trial from a fresh Philox and ranks it with
Python's sort. Seeds span the 128-bit key, n includes both sides of each
multiple of 4 (a trial's words are cut from 4 * ceil(n / 4)), and blocks
start near 2^64 / ceil(n / 4), where the counter carries into its second
word.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lrckit import (
    BitMatrix,
    InvalidCodeword,
    InvalidParams,
    ParseError,
    RecoveringFamily,
    build_graph,
    color_vertices,
    rank,
    simulate_repair,
    systematic_encode,
)
from lrckit.cli import parse_matrix, render_matrix
from lrckit.recovery_graph import _colors, _member_table, _trial_ranks, _walks_descend
from lrckit.repair_sim import _fails_checks
from oracles import (
    colors_by_rule,
    fails_parity_by_product,
    members_by_color,
    mono_walks_acyclic,
    parity_words_by_set,
    repair_trace_by_parity_word,
    rref_by_column_loop,
    seeded_permutation,
)

MAX_COLS = 70

# How a step hands the codeword array to repair.
FORMS = {
    "uint8": lambda cw: cw,
    "bool": lambda cw: cw.astype(bool),
    "int64": lambda cw: cw.astype(np.int64),
    "float": lambda cw: cw.astype(float),
    "list": lambda cw: cw.tolist(),
    "strided": lambda cw: np.repeat(cw, 2)[::2],
}
ACTIONS = ("keep", "flip", "encode", "poke")


@st.composite
def scenarios(draw):
    """Two matrices of one width, each with a family and its reverse, an
    extra (coordinate, set) pair per family that need not admit a parity
    word, and the steps."""
    n = draw(st.integers(1, MAX_COLS))
    pairs = []
    for _ in range(2):
        rows = draw(st.integers(1, 8))
        h = BitMatrix(draw(arrays(np.uint8, (rows, n), elements=st.integers(0, 1))))
        extra = draw(st.none() | st.tuples(st.integers(1, n), st.sets(st.integers(1, n))))
        family = _family(h, extra)
        pairs.append((h, (family, _reversed(family))))
    step = st.tuples(
        st.integers(0, 1),
        st.integers(0, 1),
        st.sampled_from(ACTIONS),
        st.integers(0, MAX_COLS - 1),
        st.sampled_from(sorted(FORMS)),
        st.integers(0, 2**MAX_COLS - 1),
    )
    return pairs, draw(st.lists(step, min_size=1, max_size=10))


def _family(h, extra):
    """Per coordinate, the first two rows of H through it, each without the
    coordinate; ``extra`` adds one more set to one coordinate."""
    n = h.cols
    supports = [frozenset(np.flatnonzero(row) + 1) for row in h.array]
    by_coordinate = []
    for i in range(1, n + 1):
        sets = [s - {i} for s in supports if i in s and s != {i}][:2]
        if extra is not None and extra[0] == i and extra[1] - {i}:
            sets.append(frozenset(extra[1] - {i}))
        by_coordinate.append(tuple(sets))
    return RecoveringFamily(n=n, sets_by_coordinate=tuple(by_coordinate))


def _reversed(family):
    """The family with each coordinate's sets listed in reverse."""
    by_coordinate = tuple(sets[::-1] for sets in family.sets_by_coordinate)
    return RecoveringFamily(n=family.n, sets_by_coordinate=by_coordinate)


def _encode(h, bits):
    k = h.cols - rank(h)
    return systematic_encode(h, [(bits >> s) & 1 for s in range(k)])


def _outcome(call):
    """A trace, the package's or the oracle's, as one tuple, or an error as
    its type and text."""
    try:
        result = call()
    except (InvalidParams, InvalidCodeword) as error:
        return type(error), str(error)
    if not isinstance(result, tuple):
        result = (result.erased, result.recoveries, result.recovered_values, result.helper_load)
    erased, recoveries, values, load = result
    return erased, recoveries, values, list(load.items())


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(scenarios())
def test_repair_matches_uncached_oracle(scenario):
    pairs, steps = scenario
    words = [[parity_words_by_set(h, family) for family in both] for h, both in pairs]
    cw = _encode(pairs[0][0], 1)
    for m, f, action, j, form, bits in steps:
        h, family = pairs[m][0], pairs[m][1][f]
        if action == "flip":
            cw[j % h.cols] ^= 1
        elif action == "encode":
            cw = _encode(h, bits)
        elif action == "poke":
            cw[j % h.cols] = 2
        erased = j % h.cols + 1
        passed = FORMS[form](cw)
        got = _outcome(lambda: simulate_repair(h, family, passed, erased))
        want = _outcome(
            lambda: repair_trace_by_parity_word(h, family, passed, erased, words[m][f])
        )
        assert got == want


@st.composite
def encodings(draw):
    """A matrix of 1 to 8 rows and 1 to MAX_COLS columns, each row drawn,
    a copy of an earlier row or zero; message bits; columns to flip."""
    n = draw(st.integers(1, MAX_COLS))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(("drawn", "copy", "zero")))
        if kind == "copy" and rows:
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
        elif kind == "zero":
            rows.append(np.zeros(n, dtype=np.uint8))
        else:
            rows.append(draw(arrays(np.uint8, n, elements=st.integers(0, 1))))
    flips = draw(st.lists(st.integers(0, n - 1), max_size=6))
    return BitMatrix(np.array(rows)), draw(st.integers(0, 2**n - 1)), flips


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(encodings())
def test_encode_and_parity_test_match_product(case):
    h, bits, flips = case
    _, pivots = rref_by_column_loop(h.array)
    free = [c for c in range(h.cols) if c not in pivots]
    message = [(bits >> s) & 1 for s in range(len(free))]
    word = systematic_encode(h, message)
    assert word[free].tolist() == message
    assert not fails_parity_by_product(h, word)
    assert not _fails_checks(h, word)
    for j in flips:
        word[j] ^= 1
        assert _fails_checks(h, word) == fails_parity_by_product(h, word)


@st.composite
def colorings(draw):
    """A family on 2 to 16 vertices, a few rankings, and per ranking a
    coloring that may break the rule: each vertex gets 0 or one of its
    colors."""
    n = draw(st.integers(2, 16))
    vertex = st.integers(1, n)
    sets: list[list[frozenset[int]]] = [[] for _ in range(n)]

    def add(v, s):
        sets[v - 1].insert(draw(st.integers(0, len(sets[v - 1]))), frozenset(s))

    for group in draw(st.lists(st.sets(vertex, min_size=2), max_size=3)):
        for v in sorted(group):
            add(v, group - {v})
    for v, members in draw(st.lists(st.tuples(vertex, st.sets(vertex, min_size=1)), max_size=n)):
        if members - {v}:
            add(v, members - {v})
    for v in draw(st.lists(vertex, max_size=3)):
        if sets[v - 1]:
            add(v, draw(st.sampled_from(sets[v - 1])))
    if not any(sets):
        add(1, {2})
    ranks = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1, max_size=4))
    fake = [[draw(st.integers(0, len(s))) for s in sets] for _ in ranks]
    family = RecoveringFamily(n=n, sets_by_coordinate=tuple(map(tuple, sets)))
    return family, np.array(ranks), np.array(fake)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(colorings())
def test_coloring_matches_rule_and_walks_match_dfs(scenario):
    family, ranks, fake = scenario
    graph, table = build_graph(family), _member_table(family)
    members = members_by_color(family.sets_by_coordinate)
    colors = _colors(table, ranks)
    for row, tau in zip(colors, ranks):
        expected = colors_by_rule(family.sets_by_coordinate, tau)
        assert row.tolist() == [c or 0 for c in expected]
        assert list(color_vertices(graph, family, tau).colors) == expected
    assert _walks_descend(table, ranks, colors).all()
    # colorings that ignore the rule: the check passes exactly when every
    # colored vertex outranks its own-color set, and strict descent implies
    # acyclic walks, so every cyclic coloring fails
    for row, tau, ok in zip(fake, ranks, _walks_descend(table, ranks, fake)):
        descends = all(
            tau[m] < tau[v] for v, c in enumerate(row) if c for m in members[v][c - 1]
        )
        assert ok == descends
        assert mono_walks_acyclic(members, [int(c) or None for c in row]) or not ok


@st.composite
def trial_blocks(draw):
    """(seed, first trial, trial count, n)."""
    near_four = st.builds(lambda j, d: 4 * j + d, st.integers(1, 74), st.sampled_from((-1, 1)))
    n = draw(st.integers(1, 300) | near_four)
    carry = 2**64 // -(-n // 4)
    first = draw(
        st.integers(0, 40) | st.integers(carry - 6, carry + 2) | st.integers(0, carry + 2)
    )
    return draw(st.integers(0, 2**128 - 1)), first, draw(st.integers(1, 6)), n


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(trial_blocks())
def test_trial_ranks_match_a_fresh_philox_per_trial(case):
    seed, first, count, n = case
    ranks = _trial_ranks(seed, range(first, first + count), n)
    expected = [seeded_permutation(seed, k, n) for k in range(first, first + count)]
    assert np.array_equal(ranks, np.stack(expected))
    assert (np.sort(ranks, axis=1) == np.arange(1, n + 1)).all()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    arrays(np.uint8, st.tuples(st.integers(1, 8), st.integers(1, 130)), elements=st.integers(0, 1))
)
def test_render_and_parse_round_trip(a):
    h = BitMatrix(a)
    text = render_matrix(h)
    lines = [f"{a.shape[0]} {a.shape[1]}"] + ["".join(map(str, row)) for row in a.tolist()]
    assert text == "\n".join(lines) + "\n"
    assert parse_matrix(text) == h


HEADER_CHARS = list("0123456789") + [" ", "\t", "+", "-", "_", "x", "\u0663", "\u00b2"]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    st.text(st.sampled_from(HEADER_CHARS), max_size=10)
    | st.builds("{}{}{}".format, st.integers(0, 9), st.sampled_from(" \t"), st.integers(0, 80))
)
def test_parse_refuses_malformed_headers(header):
    tokens = header.split()
    valid = len(tokens) == 2 and all(t.strip("0123456789") == "" for t in tokens)
    valid = valid and min(map(int, tokens)) >= 1
    rows, cols = map(int, tokens) if valid else (1, 1)
    # Rows of zeros that fit the header when it is small, else one "0" row.
    fits = rows * cols <= 2**10
    body = ("0" * cols + "\n") * rows if fits else "0\n"
    try:
        h = parse_matrix(header + "\n" + body)
    except ParseError as error:
        assert error.line > 1 if valid else error.line == 1
        assert not fits or not valid
    else:
        assert valid and fits and h == BitMatrix(np.zeros((rows, cols), dtype=np.uint8))
