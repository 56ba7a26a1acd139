"""Property tests: repair, which keeps the parity verdict of the last
codeword it saw, against the oracle that checks every call from scratch.

Each example draws two small matrices of one width and replays an
interleaved sequence of repairs on them. Between repairs the one codeword
array is re-encoded, flipped in place, given a non-bit entry or passed on
unchanged, and each call hands it over in one of several forms. Every
result, trace or error, must equal the oracle's.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lrckit import (
    BitMatrix,
    InvalidCodeword,
    InvalidParams,
    RecoveringFamily,
    rank,
    simulate_repair,
    systematic_encode,
)
from oracles import parity_words_by_set, repair_trace_by_parity_word

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
    """Two matrices of one width, each with a family, an extra (coordinate,
    set) pair per family that need not admit a parity word, and the steps."""
    n = draw(st.integers(1, MAX_COLS))
    pairs = []
    for _ in range(2):
        rows = draw(st.integers(1, 8))
        h = BitMatrix(draw(arrays(np.uint8, (rows, n), elements=st.integers(0, 1))))
        extra = draw(st.none() | st.tuples(st.integers(1, n), st.sets(st.integers(1, n))))
        pairs.append((h, _family(h, extra)))
    step = st.tuples(
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
    words = [parity_words_by_set(h, family) for h, family in pairs]
    cw = _encode(pairs[0][0], 1)
    for m, action, j, form, bits in steps:
        h, family = pairs[m]
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
            lambda: repair_trace_by_parity_word(h, family, passed, erased, words[m])
        )
        assert got == want
