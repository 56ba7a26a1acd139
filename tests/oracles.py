"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: exhaustive search over canonical
configurations, no shared code paths with the package. There are two
exceptions, each resting on a path that is itself checked against an oracle
here. min_distance streams codewords through the package's
iter_codeword_blocks, checked against codewords_by_brute_force. The repair
oracles take their parity words from recovery_parity_word, checked against
parity_word_by_reduced_rows, which follows the package's rule for which
word a set gets. parity_word_by_row_loop, the rule before it (the first
fitting row of H, else a solve over all rows of H), still checks whether a
word exists and, where a set has only one, which. The coloring oracles run
the package's coloring kernel over every ranking, checked against
colors_by_rule, and its per-subset structural_check over every subset.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, permutations, product
from math import factorial, inf, sqrt

import numpy as np

from lrckit import (
    BitMatrix,
    InvalidCodeword,
    InvalidParams,
    recovery_parity_word,
    structural_check,
)
from lrckit.gf2 import ENUMERATION_CAP, iter_codeword_blocks
from lrckit.recovery_graph import _colors, _member_table

# Rows of H each search mode may combine: one, up to three, or all of them.
_MODE_DEPTH = {"rows-only": 1, "bounded-combos": 3, "dual-enum": None}


def min_union_size(r: int, j: int, x: int) -> int:
    """Exact minimum of the union of j size-r sets, pairwise overlap <= x.

    Canonical form under relabeling: S1 = [0, r); S2 meets S1 in a prefix of
    size a <= x and continues with fresh elements; S3 ranges over the union
    plus one fresh block of size r. Supports j <= 3 only.
    """
    if j < 1 or j > 3 or r < 1 or x < 0:
        raise ValueError("oracle supports r >= 1, 1 <= j <= 3, x >= 0")
    s1 = frozenset(range(r))
    if j == 1:
        return r
    best = None
    for a in range(min(x, r) + 1):
        s2 = frozenset(range(a)) | frozenset(range(r, 2 * r - a))
        union2 = s1 | s2
        if j == 2:
            size = len(union2)
            best = size if best is None else min(best, size)
            continue
        ground = sorted(union2) + list(range(3 * r, 4 * r))
        for cand in combinations(ground, r):
            s3 = frozenset(cand)
            if len(s3 & s1) > x or len(s3 & s2) > x:
                continue
            size = len(union2 | s3)
            best = size if best is None else min(best, size)
    assert best is not None
    return best


def min_distance(matrix, max_dim: int = ENUMERATION_CAP) -> int | float:
    """Minimum nonzero codeword weight, by full enumeration.

    Returns math.inf for the zero-dimensional code; raises DimensionTooLarge
    past ``max_dim``.
    """
    best: int | float = inf
    for block in iter_codeword_blocks(matrix, max_dim):
        weights = block.sum(axis=1, dtype=np.int64)
        nonzero = weights[weights > 0]
        if nonzero.size:
            best = min(best, int(nonzero.min()))
    return best


def min_distance_by_columns(matrix: BitMatrix, cap: int = 4) -> int | None:
    """Smallest w <= cap such that some w columns of the matrix XOR to zero.

    For a parity-check matrix this is the code minimum distance whenever the
    answer is at most cap; returns None if no such set exists below the cap.
    """
    cols = matrix.array.T.astype(np.int64)
    for w in range(1, cap + 1):
        for combo in combinations(range(matrix.cols), w):
            if not (cols[list(combo)].sum(axis=0) % 2).any():
                return w
    return None


def candidates_by_brute_force(
    matrix: BitMatrix, i: int, r: int, mode: str
) -> tuple[frozenset[int], ...]:
    """Candidate recovering sets for 1-based coordinate i, straight from the
    definition: XOR every allowed subset of the rows of H, keep each word with
    a 1 at i and weight <= r + 1, and return its support minus i, 1-based,
    deduplicated and sorted like candidate_sets. dual-enum may combine every
    row, so this walks 2**rows subsets.
    """
    depth = _MODE_DEPTH[mode] or matrix.rows
    rows = matrix.array
    found = set()
    for size in range(1, depth + 1):
        for combo in combinations(range(matrix.rows), size):
            word = np.zeros(matrix.cols, dtype=np.uint8)
            for k in combo:
                word ^= rows[k]
            support = frozenset(int(j) + 1 for j in np.flatnonzero(word))
            if i in support and len(support) <= r + 1:
                found.add(support - {i})
    return tuple(sorted(found, key=sorted))


def low_weight_words_unpruned(matrix: BitMatrix, r: int, mode: str) -> set[bytes]:
    """The dual words of weight 1..r + 1 that search ``mode`` sees, as the
    set of their rows packed into uint64 limbs (column j is bit j % 64 of
    limb j // 64), found by XORing every combination the mode allows and
    filtering afterwards: rows-only takes the rows of H, bounded-combos
    every one, two or three distinct rows, and dual-enum walks the whole
    row space as XOR combinations of the rows of rref(H), 2**16 words at a
    time. This is the search as it stood before it was pruned."""
    rows = _packed(matrix.array)
    if mode == "rows-only":
        blocks = [rows]
    elif mode == "bounded-combos":
        blocks = _every_row_combination(rows)
    else:
        reduced, pivots = rref_by_column_loop(matrix.array)
        blocks = _span_walk(_packed(reduced[: len(pivots)]))
    found = set()
    for block in blocks:
        weights = np.bitwise_count(block).sum(axis=1)
        found.update(row.tobytes() for row in block[(weights >= 1) & (weights <= r + 1)])
    return found


def _packed(a: np.ndarray) -> np.ndarray:
    padded = np.zeros((a.shape[0], -(-a.shape[1] // 64) * 64), dtype=np.uint8)
    padded[:, : a.shape[1]] = a
    return np.packbits(padded, axis=1, bitorder="little").view("<u8").astype(np.uint64)


def _every_row_combination(rows: np.ndarray):
    """The rows, then per leading row the XOR with every later row and with
    every pair of later rows."""
    yield rows
    for first in range(rows.shape[0] - 1):
        later = rows[first + 1 :]
        yield later ^ rows[first]
        a, b = np.triu_indices(later.shape[0], 1)
        yield later[a] ^ later[b] ^ rows[first]


def _span_walk(basis: np.ndarray):
    """Every XOR combination of the basis rows: the combinations of the last
    16 rows, offset by each combination of the others."""
    high = max(basis.shape[0] - 16, 0)
    low = _doubled(basis[high:])
    for offset in _doubled(basis[:high]):
        yield low ^ offset


def _doubled(rows: np.ndarray) -> np.ndarray:
    combos = np.zeros((1, rows.shape[1]), dtype=np.uint64)
    for row in rows:
        combos = np.concatenate([combos, combos ^ row])
    return combos


def solve_by_pivot_limit(a, b) -> np.ndarray | None:
    """One solution x of A x = b over GF(2) with every free variable zero,
    or None. Pivots are taken among the coefficient columns only, then
    consistency is read off the right-hand column of the rows below the
    rank."""
    coeff = np.asarray(a, dtype=np.uint8)
    aug = np.hstack([coeff, np.asarray(b, dtype=np.uint8).reshape(-1, 1)])
    rows, n = coeff.shape
    pivots = []
    for c in range(n):
        r = len(pivots)
        hits = r + np.flatnonzero(aug[r:, c])
        if not hits.size:
            continue
        aug[[r, hits[0]]] = aug[[hits[0], r]]
        others = np.flatnonzero(aug[:, c])
        aug[others[others != r]] ^= aug[r]
        pivots.append(c)
    if aug[len(pivots) :, n].any():
        return None
    x = np.zeros(n, dtype=np.uint8)
    for k, c in enumerate(pivots):
        x[c] = aug[k, n]
    return x


def rref_by_column_loop(a) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row echelon form over GF(2) and its pivot columns, visiting
    every column left to right until the rows run out, with no early stop."""
    a = np.array(a, dtype=np.uint8)
    rows, cols = a.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        hits = r + np.flatnonzero(a[r:, c])
        if not hits.size:
            continue
        a[[r, hits[0]]] = a[[hits[0], r]]
        others = np.flatnonzero(a[:, c])
        a[others[others != r]] ^= a[r]
        pivots.append(c)
    return a, tuple(pivots)


def parity_word_by_row_loop(matrix: BitMatrix, target: int, helpers) -> np.ndarray | None:
    """recovery_parity_word by its two steps read literally: the first row
    of H, scanned one at a time, with a 1 at ``target`` and no 1 outside
    helpers + {target}; failing that, the row combination that
    solve_by_pivot_limit finds. 0-based columns."""
    a = matrix.array
    allowed = np.zeros(matrix.cols, dtype=bool)
    allowed[list(helpers)] = True
    allowed[target] = True
    for row in a:
        if row[target] and not np.any(row & ~allowed):
            return row.copy()
    outside = np.flatnonzero(~allowed)
    system = np.vstack([a[:, outside].T, a[:, target][None, :]])
    rhs = np.zeros(outside.size + 1, dtype=np.uint8)
    rhs[-1] = 1
    u = solve_by_pivot_limit(system, rhs)
    if u is None:
        return None
    return (u.astype(np.int64) @ a % 2).astype(np.uint8)


@lru_cache(maxsize=8)
def _reduced(matrix: BitMatrix) -> tuple[np.ndarray, tuple[int, ...]]:
    """rref_by_column_loop of H, once per matrix, read-only."""
    reduced, pivots = rref_by_column_loop(matrix.array)
    reduced.setflags(write=False)
    return reduced, pivots


def parity_word_by_reduced_rows(matrix: BitMatrix, target: int, helpers) -> np.ndarray | None:
    """recovery_parity_word's rule read literally: reduce H by
    rref_by_column_loop, keep the reduced rows whose pivot lies in helpers +
    {target}, and combine them by the solution solve_by_pivot_limit finds
    for a 0 at every column outside helpers + {target} and a 1 at the
    target. 0-based columns."""
    reduced, pivots = _reduced(matrix)
    allowed = np.zeros(matrix.cols, dtype=bool)
    allowed[list(helpers)] = True
    allowed[target] = True
    rows = reduced[[k for k, c in enumerate(pivots) if allowed[c]]]
    outside = np.flatnonzero(~allowed)
    system = np.vstack([rows[:, outside].T, rows[:, target][None, :]])
    rhs = np.zeros(outside.size + 1, dtype=np.uint8)
    rhs[-1] = 1
    u = solve_by_pivot_limit(system, rhs)
    if u is None:
        return None
    return (u.astype(np.int64) @ rows % 2).astype(np.uint8)


def words_inside(matrix: BitMatrix, columns) -> int:
    """How many row-space words of H have their support inside ``columns``
    (0-based), the zero word included: 2 ** (rank(H) - rank of the other
    columns). A set with a parity word has exactly this many for its
    helpers: any one of them plus each such word."""
    outside = np.ones(matrix.cols, dtype=bool)
    outside[list(columns)] = False
    # The transpose has the same rank and only rows(H) columns to visit.
    rest = len(rref_by_column_loop(matrix.array[:, outside].T)[1])
    return 2 ** (len(_reduced(matrix)[1]) - rest)


def codewords_by_brute_force(matrix: BitMatrix) -> np.ndarray:
    """Every vector c of {0,1}^n with H c = 0; n <= 16."""
    if matrix.cols > 16:
        raise ValueError("brute-force codeword search supports n <= 16")
    vectors = np.array(list(product((0, 1), repeat=matrix.cols)), dtype=np.int64)
    syndromes = (vectors @ matrix.array.T.astype(np.int64)) % 2
    return vectors[~syndromes.any(axis=1)].astype(np.uint8)


def span_by_brute_force(rows: np.ndarray) -> np.ndarray:
    """Every combination m @ rows mod 2 over all message vectors m."""
    messages = np.array(list(product((0, 1), repeat=rows.shape[0])), dtype=np.int64)
    return ((messages @ rows.astype(np.int64)) % 2).astype(np.uint8)


def separated_by(words: np.ndarray, coordinate: int, helpers) -> bool:
    """Literal separation test on a list of codewords: grouped by their
    restriction to the helper coordinates, no group mixes both values of the
    symbol at ``coordinate``. Coordinates are 1-based."""
    cols = sorted(h - 1 for h in helpers)
    groups: dict[bytes, set[int]] = {}
    for word in words:
        groups.setdefault(word[cols].tobytes(), set()).add(int(word[coordinate - 1]))
    return all(len(values) == 1 for values in groups.values())


def recoverable_by_pairs(matrix: BitMatrix, coordinate: int, helpers) -> bool:
    """Separation test over every codeword of H, found by brute force."""
    return separated_by(codewords_by_brute_force(matrix), coordinate, helpers)


def expected_colored_fraction_by_simulation(
    sets_by_coordinate, n: int, trials: int, seed: int
):
    """Plain re-implementation of the permutation coloring experiment.

    Draws independent uniform permutations (its own RNG stream, not the
    library contract) and returns the average colored fraction.
    """
    rng = np.random.default_rng(seed)
    total = 0
    for _ in range(trials):
        perm = rng.permutation(n)
        for v in range(n):
            for members in sets_by_coordinate[v]:
                if all(perm[m - 1] < perm[v] for m in members):
                    total += 1
                    break
    return total / (trials * n)


def seeded_permutation(seed: int, trial: int, n: int) -> np.ndarray:
    """The per-trial ranks of the Monte Carlo contract, drawn on their own:
    a fresh Philox for this trial alone, at counter trial * ceil(n / 4),
    and vertices ordered by Python's sort on (word without its low bits,
    vertex)."""
    m = -(-n // 4)
    words = np.random.Philox(key=seed, counter=trial * m).random_raw(4 * m)
    low = max(1, (n - 1).bit_length())
    order = sorted((int(w) >> low, v) for v, w in enumerate(words[:n]))
    return np.array([v + 1 for _, v in order], dtype=np.int64)


def monte_carlo_by_rule(sets_by_coordinate, n: int, trials: int, seed: int):
    """(mean, stderr) of the colored fraction over the contract's seeded
    permutations, colored one trial at a time by the literal rule and
    reduced with the same float formulas as the library."""
    counts = np.array(
        [
            sum(c is not None for c in colors_by_rule(sets_by_coordinate, ranks))
            for ranks in (seeded_permutation(seed, k, n) for k in range(trials))
        ]
    )
    mean = int(counts.sum()) / (trials * n)
    stderr = float(counts.std(ddof=1) / (n * sqrt(trials)))
    return mean, stderr


def members_by_color(sets_by_coordinate) -> list[list[tuple[int, ...]]]:
    """Per vertex (0-based), per color, the sorted 0-based members."""
    return [
        [tuple(sorted(e - 1 for e in s)) for s in sets] for sets in sets_by_coordinate
    ]


def colors_by_rule(sets_by_coordinate, ranks) -> list[int | None]:
    """The coloring rule read literally: vertex v takes the smallest l whose
    whole l-th set ranks strictly below v, else None. 1-based members."""
    colors: list[int | None] = []
    for v, sets in enumerate(sets_by_coordinate):
        color = None
        for l, s in enumerate(sets, start=1):
            if all(ranks[m - 1] < ranks[v] for m in s):
                color = l
                break
        colors.append(color)
    return colors


def expected_colored_fraction_by_permutations(family) -> Fraction:
    """Exact expected colored fraction over all n! rankings, colored in
    chunks of 1024 by the package's kernel. Feasible for n <= 8 or so."""
    table = _member_table(family)
    ranks = permutations(range(1, family.n + 1))
    total_colored = 0
    while block := list(islice(ranks, 1024)):
        total_colored += int(np.count_nonzero(_colors(table, np.array(block))))
    return Fraction(total_colored, factorial(family.n) * family.n)


def sweep_by_subsets(graph, family, outcome) -> bool:
    """The structural sweep by enumeration: structural_check holds on every
    nonempty subset of the colored set. 2^colored checks."""
    members = sorted(outcome.colored)
    return all(
        structural_check(graph, family, outcome, frozenset(subset))
        for size in range(1, len(members) + 1)
        for subset in combinations(members, size)
    )


def mono_walks_acyclic(
    members0: list[list[tuple[int, ...]]],
    colors,
) -> bool:
    """DFS cycle check of the colored subgraph that keeps, for each colored
    vertex, only the edges of its own color into colored vertices."""
    n = len(colors)
    adj: list[list[int]] = [[] for _ in range(n)]
    for v0, c in enumerate(colors):
        if c is None:
            continue
        adj[v0] = [m0 for m0 in members0[v0][c - 1] if colors[m0] is not None]
    state = [0] * n  # 0 new, 1 on stack, 2 done
    for root in range(n):
        if state[root] or colors[root] is None:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        state[root] = 1
        while stack:
            v0, ptr = stack[-1]
            if ptr < len(adj[v0]):
                stack[-1] = (v0, ptr + 1)
                w0 = adj[v0][ptr]
                if state[w0] == 1:
                    return False
                if state[w0] == 0:
                    state[w0] = 1
                    stack.append((w0, 0))
            else:
                state[v0] = 2
                stack.pop()
    return True


def parity_words_by_set(matrix: BitMatrix, family) -> list[list[np.ndarray | None]]:
    """recovery_parity_word for every set of every coordinate, in order."""
    return [
        [recovery_parity_word(matrix, i, [e - 1 for e in s]) for s in sets]
        for i, sets in enumerate(family.sets_by_coordinate)
    ]


def fails_parity_by_product(matrix: BitMatrix, codeword) -> bool:
    """Whether a 0/1 vector fails a parity check of H: the syndrome as an
    integer matrix-vector product, reduced mod 2."""
    return bool(np.any((matrix.array.astype(np.int64) @ np.asarray(codeword)) % 2))


def repair_trace_by_parity_word(matrix: BitMatrix, family, codeword, erased, words=None):
    """simulate_repair read literally: the same input checks in the same
    order, then per recovering set of the erased coordinate, the helpers are
    the support of its parity word minus the coordinate, the value is their
    XOR, and each read adds one to the helper's load, sorted at the end.
    ``words`` is parity_words_by_set(matrix, family), computed when absent.
    Returns (erased, recoveries, recovered_values, helper_load)."""
    n = matrix.cols
    if family.n != n:
        raise InvalidParams("family length does not match matrix columns")
    if not 1 <= erased <= n:
        raise InvalidParams(f"erased coordinate {erased} out of range 1..{n}")
    cw = np.asarray(codeword)
    if cw.ndim != 1 or cw.shape[0] != n:
        raise InvalidParams(f"codeword must have length {n}")
    if not all(v == 0 or v == 1 for v in cw.tolist()):
        raise InvalidCodeword("codeword entries must be 0 or 1")
    bits = [int(v) for v in cw.tolist()]
    for row in matrix.array:
        if sum(b for b, m in zip(bits, row.tolist()) if m) % 2:
            raise InvalidCodeword("vector fails the parity checks")
    if words is None:
        words = parity_words_by_set(matrix, family)
    for i, row_words in enumerate(words, start=1):
        if any(word is None for word in row_words):
            raise InvalidParams(f"coordinate {i}: a recovering set admits no parity word")
    recoveries, values, load = [], [], {}
    for word in words[erased - 1]:
        reads = []
        value = 0
        for j in np.flatnonzero(word).tolist():
            if j == erased - 1:
                continue
            reads.append((j + 1, bits[j]))
            value ^= bits[j]
            load[j + 1] = load.get(j + 1, 0) + 1
        recoveries.append(tuple(reads))
        values.append(value)
    return erased, tuple(recoveries), tuple(values), dict(sorted(load.items()))
