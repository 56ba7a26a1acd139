"""Random-permutation coloring experiments on recovering-set structure.

The graph has one vertex per coordinate and a color-l edge from i to every
member of the l-th recovering set of i. Under a uniformly random ranking of
the vertices, a vertex takes the smallest color whose whole set ranks below
it; the colored fraction lower-bounds the redundancy argument behind the rate
bound, and walks that follow a vertex's own color strictly descend the
ranking, hence never cycle.

One numpy kernel applies the rule to a block of rankings at once, for a single
coloring and for Monte Carlo; the exact expectation and the structural sweep
walk no rankings. The kernel takes the maximum rank of each distinct closure
S + {v} once (see _colors); the walk check reads the members, not those
maxima. Monte Carlo trial k ranks the vertices by
``trial_permutation(seed, k, n)``: the argsort of n keys drawn from a Philox
stream keyed by the seed at counter k * ceil(n / 4), after Salmon, Moraes,
Dror and Shaw (2011). Trial k's words follow trial k - 1's, so one call
draws every block from one stream, and a block of trials is one raw draw and
one sort; results do not depend on the block size.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import sqrt
from typing import Sequence

import numpy as np

from .errors import InvalidParams, _integer
from .verifier import RecoveringFamily

__all__ = [
    "RecoveryGraph",
    "ColoringOutcome",
    "MonteCarloStats",
    "build_graph",
    "color_vertices",
    "structural_check",
    "structural_sweep",
    "monte_carlo_colored_fraction",
    "exhaustive_expected_fraction",
    "trial_permutation",
]


@dataclass(frozen=True)
class RecoveryGraph:
    """Shape of the directed colored multigraph of a family: ``n`` vertices
    and ``t`` colors, the most recovering sets of any vertex. Its edges, m
    in the l-th recovering set of i, are read from the family itself.
    Vertices and colors are 1-based."""

    n: int
    t: int


@dataclass(frozen=True)
class ColoringOutcome:
    """Vertex colors under one permutation; ``permutation[v - 1]`` is the
    rank of vertex v, ``colors[v - 1]`` is its color or None."""

    permutation: tuple[int, ...]
    colors: tuple[int | None, ...]
    colored: frozenset[int]


@dataclass(frozen=True)
class MonteCarloStats:
    """Sample mean and standard error of the colored fraction, plus the
    number of trials whose monochromatic colored walks contained a cycle
    (always 0 unless the coloring rule is broken)."""

    mean: float
    stderr: float
    trials: int
    walk_failures: int


def build_graph(family: RecoveringFamily) -> RecoveryGraph:
    t = max(len(sets) for sets in family.sets_by_coordinate)
    if t == 0:
        raise InvalidParams("family has no recovering sets at all")
    return RecoveryGraph(n=family.n, t=t)


# (trial, vertex) ranks per Monte Carlo block; each kernel temporary holds at
# most t entries per rank. Keeps peak memory flat in trials.
_BLOCK_ENTRIES = 2**14


_Table = namedtuple("_Table", "members closures which")


@lru_cache(maxsize=64)
def _member_table(family: RecoveringFamily) -> _Table:
    """A family's read-only coloring arrays, built once for each of the last
    64 families: ``members`` (n, t, s), the 0-based members per vertex and
    color; ``closures``, each distinct S + {v} once, a row per closure;
    ``which`` (n, t), each set's closure row. Rows are padded with n, a
    member of rank 0 (see _extend); a missing color points at the all-pad
    row, whose maximum is no vertex's rank."""
    n = family.n
    t = max(1, max(len(sets) for sets in family.sets_by_coordinate))
    s = max([1] + [len(m) for sets in family.sets_by_coordinate for m in sets])
    members = np.full((n, t, s), n, dtype=np.intp)
    which = np.empty((n, t), dtype=np.intp)
    rows: dict[tuple[int, ...], int] = {}
    for v0, sets in enumerate(family.sets_by_coordinate):
        for l0 in range(t):
            m = sorted(e - 1 for e in sets[l0]) if l0 < len(sets) else []
            members[v0, l0, : len(m)] = m
            closure = tuple(sorted(m + [v0])) if m else ()
            which[v0, l0] = rows.setdefault(closure, len(rows))
    closures = np.full((len(rows), s + 1), n, dtype=np.intp)
    for closure, row in rows.items():
        closures[row, : len(closure)] = closure
    for array in (members, closures, which):
        array.setflags(write=False)
    return _Table(members=members, closures=closures, which=which)


def _extend(ranks: np.ndarray) -> np.ndarray:
    """Ranks with the pad member appended: rank 0 at column n. Held as int32
    to halve the gathered blocks."""
    rows, n = ranks.shape
    ext = np.zeros((rows, n + 1), dtype=np.int32)
    ext[:, :n] = ranks
    return ext


def _colors(table: _Table, ranks: np.ndarray) -> np.ndarray:
    """Colors of a (rows, n) block of ranks: vertex v takes the smallest
    color l (1-based) whose whole l-th set S ranks strictly below v, or 0.
    Ranks are distinct and v is not in S, so that holds iff v ranks highest
    in S + {v}: each distinct closure's maximum is taken once, by columns."""
    ext = _extend(ranks)
    highest = ext[:, table.closures[:, 0]]
    for column in table.closures.T[1:]:
        np.maximum(highest, ext[:, column], out=highest)
    colors = np.zeros(ranks.shape, dtype=np.intp)
    for l in range(table.which.shape[1], 0, -1):
        colors[highest[:, table.which[:, l - 1]] == ext[:, :-1]] = l
    return colors


def _walks_descend(table: _Table, ranks: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """Per row: whether every colored vertex outranks each member of its
    own-color set. Walks along own-color edges then strictly descend the
    ranking, so they cannot cycle. Reads the member table, not the closures,
    so it checks the coloring independently; only the colored (row, vertex)
    pairs are gathered, one member column at a time."""
    rows, n = ranks.shape
    flat = _extend(ranks).ravel()
    pair = np.flatnonzero(colors != 0)
    row = pair // n
    offsets = row * (n + 1)
    # (vertex, own color) as an index into the n * t sets
    own = (pair - row * n) * table.members.shape[1] + colors.ravel()[pair] - 1
    by_column = table.members.reshape(-1, table.members.shape[2]).T
    highest = flat[by_column[0][own] + offsets]
    for column in by_column[1:]:
        np.maximum(highest, flat[column[own] + offsets], out=highest)
    broken = row[highest >= flat[pair + row]]
    return np.bincount(broken, minlength=rows) == 0


def color_vertices(
    graph: RecoveryGraph, family: RecoveringFamily, permutation: Sequence[int]
) -> ColoringOutcome:
    """Color v with the smallest l whose entire l-th set ranks strictly below
    v under the permutation; leave v uncolored when no set does."""
    if graph.n != family.n:
        raise InvalidParams("graph and family disagree on n")
    tau = tuple(_integer(v, "permutation entry") for v in permutation)
    if sorted(tau) != list(range(1, graph.n + 1)):
        raise InvalidParams("permutation must be a bijection on 1..n")
    row = _colors(_member_table(family), np.array([tau]))[0]
    colors = tuple(int(c) if c else None for c in row)
    colored = frozenset(v0 + 1 for v0, c in enumerate(colors) if c is not None)
    return ColoringOutcome(permutation=tau, colors=colors, colored=colored)


def structural_check(
    graph: RecoveryGraph,
    family: RecoveringFamily,
    outcome: ColoringOutcome,
    subset: frozenset[int] | set[int],
) -> bool:
    """True iff some vertex of the subset is missing, among its outgoing
    edges staying inside the subset, at least one of the t colors."""
    if graph.n != family.n:
        raise InvalidParams("graph and family disagree on n")
    if len(outcome.colors) != family.n:
        raise InvalidParams("outcome and family disagree on n")
    sub = frozenset(subset)
    if not sub <= outcome.colored:
        raise InvalidParams("subset must consist of colored vertices")
    for v in sub:
        sets = family.sets_by_coordinate[v - 1]
        present = sum(1 for s in sets if s & sub)
        if present < graph.t:
            return True
    return False


def structural_sweep(family: RecoveringFamily, outcome: ColoringOutcome) -> bool:
    """True iff ``structural_check`` holds on every nonempty subset of the
    colored set. Subsets failing it are closed under union, so peeling finds
    the largest: drop every vertex with a set not meeting what is left until
    none drops; the sweep passes iff nothing is left. As in structural_check,
    a vertex with fewer than t sets counts each missing set as never meeting.
    """
    if len(outcome.colors) != family.n:
        raise InvalidParams("outcome and family disagree on n")
    members = _member_table(family).members
    # The pad n (short and missing sets) is never left.
    left = np.zeros(family.n + 1, dtype=bool)
    left[[v - 1 for v in outcome.colored]] = True
    while True:
        keep = left[members].any(axis=2).all(axis=1) & left[:-1]
        if np.array_equal(keep, left[:-1]):
            return not keep.any()
        left[:-1] = keep


def _natural(value, name: str) -> int:
    """value as a nonnegative int, else InvalidParams."""
    value = _integer(value, name)
    if value < 0:
        raise InvalidParams(f"{name} must be nonnegative")
    return value


def _seed(value) -> int:
    """value as a Philox key: a nonnegative int below 2^128."""
    value = _natural(value, "seed")
    if value >= 2**128:
        raise InvalidParams("seed must be below 2**128, the Philox key width")
    return value


def trial_permutation(seed: int, trial: int, n: int) -> np.ndarray:
    """The documented per-trial ranks 1..n: row ``trial`` of _trial_ranks,
    a function of (seed, trial, n) only."""
    seed, trial, n = _seed(seed), _natural(trial, "trial"), _natural(n, "n")
    if (trial + 1) * -(-n // 4) > 2**256:
        raise InvalidParams("trial is past the end of the Philox counter")
    return _trial_ranks(seed, range(trial, trial + 1), n)[0]


def _trial_ranks(seed: int, ks: range, n: int) -> np.ndarray:
    """Rows of ranks for a range of trials. Trial k takes the first n of the
    4m words from ``Philox(key=seed, counter=k*m).random_raw(4*m)``,
    m = ceil(n / 4), so consecutive trials are consecutive words and a block
    is one draw (see _draw_ranks)."""
    stream = np.random.Philox(key=seed, counter=ks.start * -(-n // 4))
    return _draw_ranks(stream, len(ks), n)


def _draw_ranks(stream: np.random.Philox, rows: int, n: int) -> np.ndarray:
    """The next ``rows`` trials' ranks from a stream: each trial reads 4m
    words, m = ceil(n / 4), and keys its vertices by the first n. Each key's
    low bits are replaced by its vertex index, so the n keys are distinct and
    every sort orders them alike, and the sorted keys' low bits are the
    argsort; the row is that argsort plus one."""
    m = -(-n // 4)
    keys = stream.random_raw(rows * 4 * m).reshape(rows, 4 * m)[:, :n]
    low = max(1, (n - 1).bit_length())
    keys &= np.uint64(2**64 - 2**low)
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort(axis=1)
    keys &= np.uint64(2**low - 1)
    ranks = keys.view(np.int64)
    ranks += 1
    return ranks


def monte_carlo_colored_fraction(
    graph: RecoveryGraph,
    family: RecoveringFamily,
    trials: int,
    seed: int,
) -> MonteCarloStats:
    """Sample the colored fraction over seeded random permutations.

    Every trial also verifies that monochromatic colored walks strictly
    descend the ranking, hence are acyclic. Trial k ranks the vertices by
    ``trial_permutation(seed, k, n)``. Each block of _BLOCK_ENTRIES // n
    trials is drawn from the call's one stream, colored and walk-checked at
    once; results depend only on (seed, trials), never on scheduling or the
    block size.
    """
    if graph.n != family.n:
        raise InvalidParams("graph and family disagree on n")
    trials, seed = _natural(trials, "trials"), _seed(seed)
    if trials < 2:
        raise InvalidParams("need at least two trials for a standard error")
    table = _member_table(family)
    n = graph.n
    counts = np.empty(trials, dtype=np.int64)
    walk_failures = 0
    block = max(1, _BLOCK_ENTRIES // n)
    stream = np.random.Philox(key=seed, counter=0)
    for first in range(0, trials, block):
        ranks = _draw_ranks(stream, min(block, trials - first), n)
        colors = _colors(table, ranks)
        counts[first : first + len(ranks)] = np.count_nonzero(colors, axis=1)
        walk_failures += int(np.count_nonzero(~_walks_descend(table, ranks, colors)))
    # Single division keeps the mean exact when every trial colors the same
    # number of vertices, so equality with a rational threshold survives.
    mean = int(counts.sum()) / (trials * n)
    stderr = float(counts.std(ddof=1) / (n * sqrt(trials)))
    return MonteCarloStats(
        mean=mean, stderr=stderr, trials=trials, walk_failures=walk_failures
    )


def exhaustive_expected_fraction(
    graph: RecoveryGraph, family: RecoveringFamily
) -> Fraction:
    """Exact expected colored fraction over a uniformly random ranking.

    A union U of sets of v ranks wholly below v with probability 1/(|U| + 1),
    so by inclusion-exclusion and linearity, with U_J the union of J:
    E = (1/n) sum_v sum_{nonempty J in sets(v)} (-1)^(|J|+1) / (|U_J| + 1).
    A repeated set adds no event, so sets(v) holds v's distinct sets: that is
    n(2^t' - 1) unions, t' the most distinct sets of any vertex.
    """
    if graph.n != family.n:
        raise InvalidParams("graph and family disagree on n")
    signed: Counter[int] = Counter()
    for sets in map(set, family.sets_by_coordinate):
        for size in range(1, len(sets) + 1):
            for chosen in combinations(sets, size):
                signed[len(frozenset().union(*chosen))] += 1 if size % 2 else -1
    return sum((Fraction(c, u + 1) for u, c in signed.items()), Fraction(0)) / graph.n
