"""Random-permutation coloring experiments on recovering-set structure.

The graph has one vertex per coordinate and a color-l edge from i to every
member of the l-th recovering set of i. Under a uniformly random ranking of
the vertices, a vertex takes the smallest color whose whole set ranks below
it; the colored fraction lower-bounds the redundancy argument behind the rate
bound, and walks that follow a vertex's own color strictly descend the
ranking, hence never cycle.

One numpy kernel applies the rule to a block of rankings at once, for a
single coloring, for Monte Carlo and for the exact expectation. Monte Carlo
trial k still draws its own permutation from (seed, k); the draws are only
stacked into blocks for coloring, so results do not depend on the block size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, permutations
from math import factorial, sqrt
from typing import Sequence

import numpy as np

from .errors import DimensionTooLarge, InvalidParams
from .verifier import RecoveringFamily

__all__ = [
    "EXHAUSTIVE_VERTEX_CAP",
    "RecoveryGraph",
    "ColoringOutcome",
    "MonteCarloStats",
    "build_graph",
    "color_vertices",
    "structural_check",
    "monte_carlo_colored_fraction",
    "exhaustive_expected_fraction",
    "trial_permutation",
]

# Exhaustive expectation walks n! permutations; refuse beyond this.
EXHAUSTIVE_VERTEX_CAP = 8


@dataclass(frozen=True)
class RecoveryGraph:
    """Directed colored multigraph; an edge (i, m, l) says m belongs to the
    l-th recovering set of i. Vertices and colors are 1-based."""

    n: int
    t: int
    edges: frozenset[tuple[int, int, int]]


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
    edges = set()
    t = 0
    for i, sets in enumerate(family.sets_by_coordinate, start=1):
        t = max(t, len(sets))
        for l, s in enumerate(sets, start=1):
            for m in s:
                edges.add((i, m, l))
    if t == 0:
        raise InvalidParams("family has no recovering sets at all")
    return RecoveryGraph(n=family.n, t=t, edges=frozenset(edges))


# Scratch entries a kernel call may gather per member column; a block holds
# this many (trial, vertex, color) triples. Keeps peak memory flat in trials.
_BLOCK_ENTRIES = 2**13


def _member_table(family: RecoveringFamily) -> np.ndarray:
    """(n, t, s) array of 0-based members per vertex and color.

    Short sets are padded with n, a member that always ranks below; missing
    colors are filled with n + 1, a member that never does (see _extend).
    """
    n = family.n
    t = max(1, max(len(sets) for sets in family.sets_by_coordinate))
    s = max([1] + [len(m) for sets in family.sets_by_coordinate for m in sets])
    table = np.full((n, t, s), n + 1, dtype=np.intp)
    for v0, sets in enumerate(family.sets_by_coordinate):
        for l0, members in enumerate(sets):
            table[v0, l0] = n
            table[v0, l0, : len(members)] = sorted(e - 1 for e in members)
    return table


def _block_rows(table: np.ndarray) -> int:
    """Rank rows per kernel call for this table."""
    return max(1, _BLOCK_ENTRIES // (table.shape[0] * table.shape[1]))


def _extend(ranks: np.ndarray) -> np.ndarray:
    """Ranks with the two pad members appended: rank 0 at column n and
    rank n + 1 at column n + 1. Held as int32 to halve the gathered blocks."""
    rows, n = ranks.shape
    ext = np.zeros((rows, n + 2), dtype=np.int32)
    ext[:, :n] = ranks
    ext[:, n + 1] = n + 1
    return ext


def _colors(table: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Colors of a (rows, n) block of ranks: vertex v takes the smallest
    color l (1-based) whose whole l-th set ranks strictly below v, or 0."""
    ext = _extend(ranks)
    highest = ext[:, table[..., 0]]
    for j in range(1, table.shape[2]):
        np.maximum(highest, ext[:, table[..., j]], out=highest)
    below = highest < ranks[:, :, None]
    return np.where(below.any(axis=2), below.argmax(axis=2) + 1, 0)


def _walks_descend(
    table: np.ndarray, ranks: np.ndarray, colors: np.ndarray
) -> np.ndarray:
    """Per row: whether every colored vertex outranks each member of its
    own-color set. Walks along own-color edges then strictly descend the
    ranking, so they cannot cycle."""
    ext = _extend(ranks)
    vertices = np.arange(table.shape[0])
    own = np.maximum(colors, 1) - 1
    lower = np.ones(colors.shape, dtype=bool)
    for j in range(table.shape[2]):
        members = table[vertices, own, j]
        lower &= np.take_along_axis(ext, members, axis=1) < ranks
    return (lower | (colors == 0)).all(axis=1)


def _validate_permutation(permutation: Sequence[int], n: int) -> tuple[int, ...]:
    tau = tuple(int(v) for v in permutation)
    if len(tau) != n or sorted(tau) != list(range(1, n + 1)):
        raise InvalidParams("permutation must be a bijection on 1..n")
    return tau


def color_vertices(
    graph: RecoveryGraph, family: RecoveringFamily, permutation: Sequence[int]
) -> ColoringOutcome:
    """Color v with the smallest l whose entire l-th set ranks strictly below
    v under the permutation; leave v uncolored when no set does."""
    if graph.n != family.n:
        raise InvalidParams("graph and family disagree on n")
    tau = _validate_permutation(permutation, graph.n)
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
    sub = frozenset(subset)
    if not sub <= outcome.colored:
        raise InvalidParams("subset must consist of colored vertices")
    for v in sub:
        sets = family.sets_by_coordinate[v - 1]
        present = sum(1 for s in sets if s & sub)
        if present < graph.t:
            return True
    return False


def trial_permutation(seed: int, trial: int, n: int) -> np.ndarray:
    """The documented per-trial permutation: ranks 1..n from a PCG64 stream
    seeded with the pair (seed, trial). Independent of the trial order."""
    return np.random.default_rng((seed, trial)).permutation(n) + 1


def monte_carlo_colored_fraction(
    graph: RecoveryGraph,
    family: RecoveringFamily,
    trials: int,
    seed: int,
) -> MonteCarloStats:
    """Sample the colored fraction over seeded random permutations.

    Every trial also verifies that monochromatic colored walks strictly
    descend the ranking, hence are acyclic. Trials are drawn one by one and
    colored in blocks; results depend only on (seed, trials), never on
    scheduling or block size.
    """
    if graph.n != family.n:
        raise InvalidParams("graph and family disagree on n")
    if trials < 2:
        raise InvalidParams("need at least two trials for a standard error")
    table = _member_table(family)
    n = graph.n
    counts = np.empty(trials, dtype=np.int64)
    walk_failures = 0
    block = _block_rows(table)
    for first in range(0, trials, block):
        ks = range(first, min(first + block, trials))
        ranks = np.stack([trial_permutation(seed, k, n) for k in ks])
        colors = _colors(table, ranks)
        counts[ks.start : ks.stop] = np.count_nonzero(colors, axis=1)
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
    """Exact expected colored fraction over all n! permutations."""
    if graph.n != family.n:
        raise InvalidParams("graph and family disagree on n")
    n = graph.n
    if n > EXHAUSTIVE_VERTEX_CAP:
        raise DimensionTooLarge(
            f"exhaustive expectation needs n <= {EXHAUSTIVE_VERTEX_CAP}, got {n}"
        )
    table = _member_table(family)
    ranks = permutations(range(1, n + 1))
    total_colored = 0
    while block := list(islice(ranks, _block_rows(table))):
        total_colored += int(np.count_nonzero(_colors(table, np.array(block))))
    return Fraction(total_colored, factorial(n) * n)
