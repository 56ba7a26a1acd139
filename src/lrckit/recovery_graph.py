"""Random-permutation coloring experiments on recovering-set structure.

The graph has one vertex per coordinate and a color-l edge from i to every
member of the l-th recovering set of i. Under a uniformly random ranking of
the vertices, a vertex takes the smallest color whose whole set ranks below
it; the colored fraction lower-bounds the redundancy argument behind the rate
bound, and walks that follow a vertex's own color strictly descend the
ranking, hence never cycle.

One numpy kernel applies the rule to a block of rankings at once, for a single
coloring and for Monte Carlo; the exact expectation and the structural sweep
walk no rankings. Monte Carlo trial k ranks the vertices by
``default_rng((seed, k)).permutation(n)``, as ``trial_permutation`` does.
Trials are seeded in blocks: numpy's SeedSequence mix and PCG64 seeding step
are fixed integer algorithms, so the PCG64 state of every trial in a block is
computed at once and set on one reused generator, whose own shuffle draws the
permutation. The last trial of each block is also drawn through
``default_rng``; if its ranks or the generator state differ (a numpy release
that changed its seeding), the block is drawn through ``trial_permutation``.
Either way the ranks are the same bits, so results do not depend on the block
size.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import sqrt
from typing import Iterator, Sequence

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
_BLOCK_ENTRIES = 2**13


@lru_cache(maxsize=64)
def _member_table(family: RecoveringFamily) -> np.ndarray:
    """(n, t, s) array of 0-based members per vertex and color, read-only
    and built once for each of the last 64 families.

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
    table.setflags(write=False)
    return table


# numpy's SeedSequence constants (NEP 19, after O'Neill's seed_seq_fe) and
# the PCG64 multiplier (O'Neill 2014); _trial_ranks spot-checks them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16
_POOL_SIZE = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1


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
    ranking, so they cannot cycle. The own-color sets are gathered one
    member column at a time, so each temporary holds one entry per rank."""
    rows, n = ranks.shape
    flat = _extend(ranks).ravel()
    # (vertex, own color) as an index into a member column raveled to n * t
    own = np.arange(n) * table.shape[1] + np.maximum(colors, 1) - 1
    offsets = (np.arange(rows) * (n + 2))[:, None]
    highest = flat[table[..., 0].ravel()[own] + offsets]
    for j in range(1, table.shape[2]):
        np.maximum(highest, flat[table[..., j].ravel()[own] + offsets], out=highest)
    return ((highest < ranks) | (colors == 0)).all(axis=1)


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
    table = _member_table(family)
    # Pads n (short sets) and n + 1 (missing sets) are never left.
    left = np.zeros(family.n + 2, dtype=bool)
    left[[v - 1 for v in outcome.colored]] = True
    while True:
        keep = left[table].any(axis=2).all(axis=1) & left[:-2]
        if np.array_equal(keep, left[:-2]):
            return not keep.any()
        left[:-2] = keep


def _natural(value, name: str) -> int:
    """value as a nonnegative int, else InvalidParams."""
    value = _integer(value, name)
    if value < 0:
        raise InvalidParams(f"{name} must be nonnegative")
    return value


def trial_permutation(seed: int, trial: int, n: int) -> np.ndarray:
    """The documented per-trial permutation: ranks 1..n from a PCG64 stream
    seeded with the pair (seed, trial). Independent of the trial order."""
    seed, trial, n = _natural(seed, "seed"), _natural(trial, "trial"), _natural(n, "n")
    return np.random.default_rng((seed, trial)).permutation(n) + 1


def _word_count(value: int) -> int:
    """uint32 words SeedSequence takes from a nonnegative int (0 takes one)."""
    return max(1, -(-value.bit_length() // 32))


def _hash_chain(init: int, mult: int, calls: int) -> np.ndarray:
    """Hash constants of successive hashmix calls as a column: call i xors
    with entry i, then multiplies by entry i + 1."""
    chain = [init]
    for _ in range(calls):
        chain.append(chain[-1] * mult & _MASK32)
    return np.array(chain, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, chain: np.ndarray, first: int, calls: int):
    """hashmix calls first, first + 1, ..., one per row of the result; a
    single row of values feeds every call."""
    xor, mult = chain[first : first + calls], chain[first + 1 : first + calls + 1]
    values = (values ^ xor) * mult
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    values = _MIX_MULT_L * x - _MIX_MULT_R * y
    return values ^ (values >> _XSHIFT)


def _pcg64_states(seed: int, ks: range) -> Iterator[tuple[int, int]]:
    """(state, inc) of ``PCG64(SeedSequence((seed, k)))`` for ks that share
    a word count: SeedSequence's pool and generate_state in uint32 numpy
    arithmetic, one column per k, then PCG64's seeding step on Python ints."""
    seed_words = np.frombuffer(seed.to_bytes(4 * _word_count(seed), "little"), "<u4")
    k_width = 4 * _word_count(ks[0])
    k_words = np.frombuffer(
        b"".join(k.to_bytes(k_width, "little") for k in ks), dtype="<u4"
    ).reshape(len(ks), -1)
    width = len(seed_words) + k_words.shape[1]
    entropy = np.zeros((max(width, _POOL_SIZE), len(ks)), dtype=np.uint32)
    entropy[: len(seed_words)] = seed_words[:, None]
    entropy[len(seed_words) : width] = k_words.T
    # mix_entropy: 4 calls to fill the pool, 3 per pool source, 4 per extra
    # source. The updates from one source are independent, so each source
    # is one step over a block of rows.
    chain = _hash_chain(_INIT_A, _MULT_A, 4 * len(entropy))
    pool = _hashmix(entropy[:_POOL_SIZE], chain, 0, _POOL_SIZE)
    call = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain, call, len(dst)))
        call += len(dst)
    for src in range(_POOL_SIZE, width):
        pool = _mix(pool, _hashmix(entropy[src], chain, call, _POOL_SIZE))
        call += _POOL_SIZE
    # generate_state(4, uint64): eight uint32 words, paired little-endian.
    # PCG64 reads the four as (high, low) of initstate, then of initseq.
    chain = _hash_chain(_INIT_B, _MULT_B, 8)
    words = _hashmix(pool[np.arange(8) % _POOL_SIZE], chain, 0, 8).astype(np.uint64)
    pairs = words[0::2] | words[1::2] << np.uint64(32)
    state_hi, state_lo, seq_hi, seq_lo = pairs.tolist()
    for sh, sl, qh, ql in zip(state_hi, state_lo, seq_hi, seq_lo):
        inc = ((qh << 64 | ql) << 1 | 1) & _MASK128
        yield ((sh << 64 | sl) + inc) * _PCG_MULT + inc & _MASK128, inc


def _spot_check(
    seed: int, k: int, row: np.ndarray, bit_generator: np.random.PCG64
) -> bool:
    """Whether a fast-path row, and the PCG64 state its shuffle left, equal
    those of ``trial_permutation(seed, k, n)``'s draw. The state tells even
    where n is too small for the row to."""
    reference = np.random.default_rng((seed, k))
    return (
        np.array_equal(row, reference.permutation(len(row)) + 1)
        and reference.bit_generator.state == bit_generator.state
    )


def _trial_ranks(seed: int, ks: range, n: int) -> np.ndarray:
    """Rows ``trial_permutation(seed, k, n)`` for a range of trials, seeded
    in one batch per word count of k. The last trial of each batch is also
    drawn through ``default_rng``; on a mismatch the batch is drawn through
    ``trial_permutation``."""
    ranks = np.empty((len(ks), n), dtype=np.int64)
    ranks[:] = np.arange(1, n + 1)
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    value = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    first = ks.start
    while first < ks.stop:
        batch = range(first, min(ks.stop, 1 << 32 * _word_count(first)))
        rows = ranks[first - ks.start : batch.stop - ks.start]
        for row, (state, inc) in zip(rows, _pcg64_states(seed, batch)):
            value["state"] = {"state": state, "inc": inc}
            bit_generator.state = value
            # permutation(n) is shuffle(arange(n)); moves do not read values
            generator.shuffle(row)
        if not _spot_check(seed, batch[-1], rows[-1], bit_generator):
            rows[:] = [trial_permutation(seed, k, n) for k in batch]
        first = batch.stop
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
    trials is seeded, colored and walk-checked at once; results depend only
    on (seed, trials), never on scheduling or the block size.
    """
    if graph.n != family.n:
        raise InvalidParams("graph and family disagree on n")
    trials, seed = _natural(trials, "trials"), _natural(seed, "seed")
    if trials < 2:
        raise InvalidParams("need at least two trials for a standard error")
    table = _member_table(family)
    n = graph.n
    counts = np.empty(trials, dtype=np.int64)
    walk_failures = 0
    block = max(1, _BLOCK_ENTRIES // n)
    for first in range(0, trials, block):
        ranks = _trial_ranks(seed, range(first, min(first + block, trials)), n)
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
    That is n(2^t - 1) unions, t the most sets of any vertex.
    """
    if graph.n != family.n:
        raise InvalidParams("graph and family disagree on n")
    signed: Counter[int] = Counter()
    for sets in family.sets_by_coordinate:
        for size in range(1, len(sets) + 1):
            for chosen in combinations(sets, size):
                signed[len(frozenset().union(*chosen))] += 1 if size % 2 else -1
    return sum((Fraction(c, u + 1) for u, c in signed.items()), Fraction(0)) / graph.n
