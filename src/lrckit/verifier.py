"""Verification and discovery of recovering-set families.

A recovering set for coordinate i is a set R with i not in R such that c_i is
determined by the restriction c_R for every codeword c; for a linear code this
holds exactly when some dual word has a 1 at i and support inside R + {i}.
A family assigns each coordinate t such sets, each of size at most r, with
pairwise intersections of size at most x.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from .errors import DimensionTooLarge, FamilyNotFound, InvalidParams, _integer
from .gf2 import (
    BitMatrix,
    _as_matrix,
    _BLOCK_BITS,
    _limbs,
    _pack_rows,
    _parity_words,
    _record,
    _sum_blocks,
    _unpack_rows,
    rank,
)

__all__ = [
    "ROWS_ONLY",
    "DUAL_ENUM",
    "BOUNDED_COMBOS",
    "AUTO",
    "DUAL_ENUM_RANK_CAP",
    "RecoveringFamily",
    "VerificationReport",
    "candidate_sets",
    "verify_family",
    "discover_family",
    "resolve_search_mode",
]

ROWS_ONLY = "rows-only"
DUAL_ENUM = "dual-enum"
BOUNDED_COMBOS = "bounded-combos"
AUTO = "auto"

# Dual enumeration walks 2**rank(H) words; refuse beyond this.
DUAL_ENUM_RANK_CAP = 20

# The deep verdict reads the realizing-word table, so it costs nothing extra
# at any dimension. The cap bounds only where it is reported (deep_checked):
# the benchmark's traced study round enumerates every deep-checked code.
DEEP_CHECK_DIM_CAP = 20


@dataclass(frozen=True)
class RecoveringFamily:
    """Recovering sets per coordinate, 1-based.

    ``sets_by_coordinate[i - 1]`` lists the sets for coordinate i, in a fixed
    order. Sets never contain their own coordinate and are nonempty. The
    container, each coordinate's sets and each set may be any iterable; a
    set is stored as a frozenset of ints, the others as tuples.
    """

    n: int
    sets_by_coordinate: tuple[tuple[frozenset[int], ...], ...]

    def __post_init__(self) -> None:
        n = _integer(self.n, "n")
        object.__setattr__(self, "n", n)
        by_coordinate = tuple(self.sets_by_coordinate)
        if n < 1 or len(by_coordinate) != n:
            raise InvalidParams("family must list sets for each of the n coordinates")
        normalized = []
        for i, sets in enumerate(by_coordinate, start=1):
            label = f"coordinate {i}: set member"
            # A frozenset of ints is kept as it is: rebuilding it would only
            # copy it.
            sets = tuple(
                s
                if type(s) is frozenset and {int}.issuperset(map(type, s))
                else frozenset(_integer(e, label) for e in s)
                for s in sets
            )
            for s in sets:
                if not s:
                    raise InvalidParams(f"coordinate {i}: empty recovering set")
                if i in s:
                    raise InvalidParams(f"coordinate {i}: set contains its own coordinate")
                if min(s) < 1 or max(s) > n:
                    raise InvalidParams(f"{label} out of range")
            normalized.append(sets)
        object.__setattr__(self, "sets_by_coordinate", tuple(normalized))
        # The fields are immutable, so the hash is computed once; repair
        # looks the family up by it on every call.
        object.__setattr__(self, "_hash", hash((self.n, self.sets_by_coordinate)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class VerificationReport:
    """``overlaps[i - 1]`` is the largest intersection of two sets of
    coordinate i (0 with fewer than two sets); ``failures`` lists (1-based
    coordinate, reason) pairs in order."""

    ok: bool
    overlaps: tuple[int, ...]
    failures: tuple[tuple[int, str], ...]
    deep_checked: bool


def _low_weight_words(h: BitMatrix, r: int, mode: str) -> np.ndarray:
    """Packed nonzero dual words of weight <= r + 1, per resolved search mode.

    rows-only: the rows themselves. bounded-combos: the XORs of one, two or
    three rows of H that can weigh at most r + 1 (_pruned_combinations).
    dual-enum, which checks rank <= DUAL_ENUM_RANK_CAP first: a word's bits
    at the pivots of rref(H) are its coefficients over the reduced rows, so
    a word of weight <= r + 1 is a sum of at most r + 1 of them, and only
    those sums are made (gf2._sum_blocks), in blocks of at most
    2**_BLOCK_BITS words, so memory does not grow with 2**rank. With
    r + 1 >= rank they are the whole row space. Each mode returns the words
    that XORing all of its combinations would keep; words may repeat.
    """
    if _integer(r, "r") < 1:
        raise InvalidParams("locality must be positive")
    most = r + 1
    if mode == ROWS_ONLY:
        blocks = [_pack_rows(h.array)]
    elif mode == BOUNDED_COMBOS:
        blocks = _pruned_combinations(_pack_rows(h.array), most)
    else:
        rows, pivots = _record(h)
        if len(pivots) > DUAL_ENUM_RANK_CAP:
            raise DimensionTooLarge(
                f"dual enumeration needs rank <= {DUAL_ENUM_RANK_CAP}, got {len(pivots)}"
            )
        blocks = _sum_blocks(_limbs(rows, h.cols), most)
    kept = []
    for block in blocks:
        weights = np.bitwise_count(block).sum(axis=1, dtype=np.int64)
        kept.append(block[(weights >= 1) & (weights <= most)])
    return np.concatenate(kept)


def _pruned_combinations(rows: np.ndarray, most: int) -> Iterator[np.ndarray]:
    """Blocks holding the XOR of 1, 2 or 3 distinct packed rows, each
    combination at most once, leaving out only those heavier than ``most``.

    With G_ab = |a & b| (_gram) and w_a = G_aa, a pair weighs exactly
    w_a + w_b - 2 G_ab, and a triple weighs
    w_a + w_b + w_c - 2 (G_ab + G_ac + G_bc) + 4 |a & b & c|, so at least
    the same without the last term. The rows come whole, then per block of
    leading rows a the pairs of weight <= ``most`` and the triples whose
    bound is <= ``most``. The bounds are compared about 2**_BLOCK_BITS at a
    time: a block of a against every later b and c, or, once the later rows
    number more than 2**(_BLOCK_BITS / 2), one a against a slice of the b
    and the c after them. Beyond that and the words, a pass holds G and
    one mask of its shape."""
    yield rows
    count, limbs = rows.shape
    if count < 2:
        return
    # No word weighs more than 64 * limbs, so a larger most prunes nothing;
    # capped, every term below stays far inside the Gram matrix's dtype.
    most = min(most, 64 * limbs)
    head = np.ascontiguousarray(rows[:, :2])
    twice = _gram(rows)
    weights = twice.diagonal().copy()
    twice *= 2
    # A bound with a term set to far or -far fails: it exceeds every sum
    # of real terms. 2 G_bc is kept for b < c only, where _gram set it.
    far = 4 * (64 * limbs + most)
    twice[np.tri(count, dtype=bool)] = -far
    first = 0
    while first < count - 1:
        later = count - first - 1
        last = min(first + max(1, 2**_BLOCK_BITS // later**2), count - 1)
        # w_c - 2 G_ac over the later rows c, for c > a only.
        share = weights[first + 1 :] - twice[first:last, first + 1 :]
        share[np.tri(last - first, later, -1, dtype=bool)] = far
        # The pair a, b weighs lead[a, b] + most.
        lead = share + (weights[first:last, None] - most)
        pairs = np.nonzero(lead <= 0)
        yield from _xors(rows, head, (pairs[0] + first, pairs[1] + first + 1), most)
        step = max(1, 2**_BLOCK_BITS // ((last - first) * later))
        for b in range(0, later, step):
            # Rows b to b + step of the later ones, against the c from b on.
            light = (
                lead[:, b : b + step, None] + share[:, None, b:]
                <= twice[first + 1 + b : first + 1 + b + step, first + 1 + b :]
            )
            picks = np.unravel_index(np.flatnonzero(light), light.shape)
            bases = (first, first + 1 + b, first + 1 + b)
            yield from _xors(rows, head, tuple(p + o for p, o in zip(picks, bases)), most)
        first = last


def _gram(rows: np.ndarray) -> np.ndarray:
    """The intersection counts |a & b| of every two packed rows a <= b, as
    the popcounts of their ANDs: a block of rows against itself and the
    rows after it at a time. Below the diagonal the entries are left unset.
    They are int32 while the bounds built from them, at most
    20 * 64 * limbs, fit."""
    count, limbs = rows.shape
    dtype = np.int32 if 20 * 64 * limbs < 2**31 else np.int64
    gram = np.empty((count, count), dtype=dtype)
    step = max(1, 2**_BLOCK_BITS // (count * limbs))
    for first in range(0, count, step):
        block = rows[first : first + step, None] & rows[first:]
        counts = np.bitwise_count(block).sum(axis=2, dtype=dtype)
        gram[first : first + step, first:] = counts
    return gram


def _xors(
    rows: np.ndarray, head: np.ndarray, picks: tuple[np.ndarray, ...], most: int
) -> Iterator[np.ndarray]:
    """The XOR of the rows that the index arrays name at each position, in
    blocks of at most 2**(_BLOCK_BITS - 1) words, so that a block and the
    rows gathered into it hold at most 2**_BLOCK_BITS. ``head`` holds the
    rows' first two limbs: a combination that weighs more than ``most``
    there alone is left out unmade."""
    step = 2 ** (_BLOCK_BITS - 1)
    for start in range(0, picks[0].size, step):
        chunk = [pick[start : start + step] for pick in picks]
        if rows.shape[1] > head.shape[1]:
            part = head[chunk[0]]
            for more in chunk[1:]:
                part ^= head[more]
            light = np.bitwise_count(part).sum(axis=1) <= most
            chunk = [pick[light] for pick in chunk]
        words = rows[chunk[0]]
        for more in chunk[1:]:
            words ^= rows[more]
        yield words


def _candidate_table(
    h: BitMatrix, r: int, mode: str
) -> tuple[tuple[frozenset[int], ...], ...]:
    """Candidate recovering sets of every coordinate, as candidate_sets
    returns them, from one pass over the low-weight dual words of the
    resolved ``mode``. A word of weight 1 is skipped: its coordinate is 0 in
    every codeword, and the empty set it would give is no recovering set a
    family may hold. That coordinate takes its sets from heavier words."""
    n = h.cols
    found: list[set[frozenset[int]]] = [set() for _ in range(n)]
    for bits in _unpack_rows(_low_weight_words(h, r, mode), n):
        support = frozenset(int(j) + 1 for j in np.flatnonzero(bits))
        if len(support) == 1:
            continue
        for i in support:
            found[i - 1].add(support - {i})
    return tuple(tuple(sorted(sets, key=sorted)) for sets in found)


def candidate_sets(
    h: BitMatrix | np.ndarray, i: int, r: int, mode: str = ROWS_ONLY
) -> tuple[frozenset[int], ...]:
    """Candidate recovering sets for 1-based coordinate i: supports of dual
    words of weight 2..r + 1 containing i, minus i itself, so never empty.
    Deduplicated and sorted lexicographically. With the same ``mode`` this
    is row i of the table discover_family searches; note that the defaults
    differ (rows-only here, AUTO there). AUTO resolves as in resolve_search_mode.
    A plain-array H is wrapped anew on each call (a copy, a bit check and a
    hash); repeat callers pass a BitMatrix."""
    h = _as_matrix(h)
    if not 1 <= _integer(i, "i") <= h.cols:
        raise InvalidParams(f"coordinate {i} out of range 1..{h.cols}")
    return _candidate_table(h, r, resolve_search_mode(h, mode))[i - 1]


def resolve_search_mode(h: BitMatrix, mode: str) -> str:
    """Concrete search mode for this matrix; AUTO picks dual-enum when the
    rank cap allows (an exhaustive search), else bounded-combos."""
    if mode != AUTO:
        if mode not in (ROWS_ONLY, DUAL_ENUM, BOUNDED_COMBOS):
            raise InvalidParams(f"unknown search mode {mode!r}")
        return mode
    return DUAL_ENUM if rank(h) <= DUAL_ENUM_RANK_CAP else BOUNDED_COMBOS


def discover_family(
    h: BitMatrix | np.ndarray, r: int, t: int, x: int, mode: str = AUTO
) -> RecoveringFamily:
    """Search a recovering-set family with parameters (r, t, x).

    Per coordinate, candidates are searched depth-first in lexicographic
    order, so the result is the lexicographically smallest family the mode
    can see. A candidate may repeat when its self-intersection obeys x.
    Raises FamilyNotFound (with the exhaustiveness of the search) on failure.
    A plain-array H is wrapped anew on each call (a copy, a bit check and a
    hash); repeat callers pass a BitMatrix.
    """
    h = _as_matrix(h)
    if _integer(t, "t") < 1 or _integer(x, "x") < 0:
        raise InvalidParams("availability must be positive and overlap nonnegative")
    resolved = resolve_search_mode(h, mode)
    exhaustive = resolved == DUAL_ENUM
    chosen_all = []
    for i, cands in enumerate(_candidate_table(h, r, resolved), start=1):
        chosen = _pick_sets(cands, t, x)
        if chosen is None:
            raise FamilyNotFound(coordinate=i, exhaustive=exhaustive)
        chosen_all.append(chosen)
    return RecoveringFamily(n=h.cols, sets_by_coordinate=tuple(chosen_all))


def _pick_sets(
    cands: tuple[frozenset[int], ...], t: int, x: int
) -> tuple[frozenset[int], ...] | None:
    """The lexicographically first t candidates, by index, that pairwise meet
    in at most x, one repeating only if |S| <= x; else None. One loop walks a
    stack of the picked indices, at most one per distinct candidate."""
    picked: list[int] = []
    idx = 0
    while len(picked) < t:
        if idx < len(cands):
            s = cands[idx]
            if all(len(s & cands[j]) <= x for j in picked):
                # s meets itself in |s|; if that is at most x, s fills every
                # slot left, and no pick that starts here is smaller.
                picked += [idx] * (t - len(picked) if len(s) <= x else 1)
            idx += 1
        elif picked:
            idx = picked.pop() + 1
        else:
            return None
    return tuple(cands[j] for j in picked)


class _Realized(NamedTuple):
    """What repair and verification need of a (matrix, family) pair.

    ``columns`` holds, 0-based and ascending, the columns other than the
    coordinate of the parity word ``recovery_parity_word`` would return for
    each recovering set, set after set and coordinate after coordinate; a
    set that admits no parity word holds none. Which word a set with several
    gets depends on the code, not on the rows of H. ``cuts[i]`` lists where
    each set of coordinate i + 1 starts in ``columns``, then where its last
    set ends. ``spans`` is the cuts as one array, each row padded with its
    last cut (a set that reads nothing). ``loads[i]`` maps each helper of
    coordinate i + 1, ascending, to how many of its sets read it, as a
    read-only view that every repair trace of the coordinate shares.
    ``pairs[2 * c + b]`` is the (helper, bit) pair ``(c + 1, b)``, an object
    array whose tuples every repair trace shares. ``unrealized`` lists the
    1-based (coordinate, set) pairs that admit no parity word, in order.
    """

    columns: np.ndarray
    cuts: tuple[tuple[int, ...], ...]
    spans: np.ndarray
    loads: tuple[Mapping[int, int], ...]
    pairs: np.ndarray
    unrealized: tuple[tuple[int, int], ...]


@lru_cache(maxsize=64)
def _realizing_helpers(h: BitMatrix, family: RecoveringFamily) -> _Realized:
    """The realizing-word table of ``family`` over H, which verification and
    repair share: the parity word of every recovering set, all found by one
    call of the parity-word kernel gf2._parity_words, over H's one
    elimination. Each coordinate's loads come from one counting pass over
    its helper columns, sorted so that the keys ascend, and are wrapped once
    in a read-only view, which repair hands to its traces. Counting one
    coordinate at a time keeps the build from holding an array with an
    entry per helper read beside ``columns``, and sorting in Python keeps
    numpy's sort code out of the process's resident memory."""
    # The job list is only an argument, so it is freed before the loads are.
    columns, bounds, found = _parity_words(
        h,
        [
            (i, [e - 1 for e in s])
            for i, sets in enumerate(family.sets_by_coordinate)
            for s in sets
        ],
    )
    columns.setflags(write=False)
    bounds, found = bounds.tolist(), found.tolist()
    cuts = []
    loads = []
    unrealized = []
    k = 0
    for i, sets in enumerate(family.sets_by_coordinate, start=1):
        end = k + len(sets)
        cuts.append(tuple(bounds[k : end + 1]))
        load: dict[int, int] = {}
        for j in sorted(columns[bounds[k] : bounds[end]].tolist()):
            load[j + 1] = load.get(j + 1, 0) + 1
        loads.append(MappingProxyType(load))
        unrealized += [(i, m - k + 1) for m in range(k, end) if not found[m]]
        k = end
    pairs = np.fromiter(product(range(1, h.cols + 1), (0, 1)), dtype=object, count=2 * h.cols)
    pairs.setflags(write=False)
    width = max(map(len, cuts))
    spans = np.array([c + c[-1:] * (width - len(c)) for c in cuts], dtype=np.intp)
    spans.setflags(write=False)
    return _Realized(columns, tuple(cuts), spans, tuple(loads), pairs, tuple(unrealized))


def _overlap_failures(sets: tuple[frozenset[int], ...], x: int) -> list[str]:
    """A reason for each pair of a coordinate's sets, by 1-based index, that
    meet in more than x. Each pair of distinct sets is intersected once, and
    a repeated set meets each of its copies in all of itself."""
    at: dict[frozenset[int], list[int]] = {}
    for j, s in enumerate(sets, start=1):
        at.setdefault(s, []).append(j)
    groups = list(at.items())
    reasons = []
    for g, (s, js) in enumerate(groups):
        meets = [(len(s), combinations(js, 2))]
        meets += [(len(s & u), product(js, ks)) for u, ks in groups[g + 1 :]]
        for inter, pairs in meets:
            if inter > x:
                reason = f"intersect in {inter} > x={x}"
                reasons += [f"sets {min(p)} and {max(p)} {reason}" for p in pairs]
    return reasons


def verify_family(
    h: BitMatrix | np.ndarray,
    family: RecoveringFamily,
    r: int,
    t: int,
    x: int,
    deep: bool = False,
) -> VerificationReport:
    """Check a family against (r, t, x) over the code of H.

    Structural recoverability demands a dual word with support in R + {i}
    containing i. Codeword separation (codewords that differ at i also
    differ on R) is the same statement: it fails iff the code punctured to
    S = R + {i} holds the unit word at i, iff no word of its dual, the dual
    code of H shortened to S, has a 1 at i. ``recovery_parity_word``
    returns None only when the linear system for such a word is
    inconsistent, so each set the realizing-word table lists as unrealized
    is one defect, reported once as "admits no parity word", with or without
    ``deep``. ``deep`` only sets ``deep_checked``, when the dimension is at
    most DEEP_CHECK_DIM_CAP: the separation verdict is that same list, and
    no codeword is enumerated. Failures are data, not errors; r, t and x
    must be integers, but a value out of range is a failure. A plain-array H
    is wrapped anew on each call (a copy, a bit check and a hash); repeat
    callers pass a BitMatrix.
    """
    h = _as_matrix(h)
    if family.n != h.cols:
        raise InvalidParams("family length does not match matrix columns")
    r, t, x = _integer(r, "r"), _integer(t, "t"), _integer(x, "x")
    unrealized = _realizing_helpers(h, family).unrealized
    deep_checked = deep and h.cols - rank(h) <= DEEP_CHECK_DIM_CAP
    failures: list[tuple[int, str]] = []
    overlaps: list[int] = []
    for i, sets in enumerate(family.sets_by_coordinate, start=1):
        if len(sets) != t:
            failures.append((i, f"expected {t} recovering sets, found {len(sets)}"))
        for j, s in enumerate(sets, start=1):
            if len(s) > r:
                failures.append((i, f"set {j} has size {len(s)} > r={r}"))
        # Distinct sets are intersected once, so t copies of one set cost O(t).
        distinct = set(sets)
        inters = [len(s & u) for s, u in combinations(distinct, 2)]
        if len(distinct) < len(sets):
            # a repeated set meets each of its copies in all of itself
            inters += [len(s) for s, copies in Counter(sets).items() if copies > 1]
        overlaps.append(max(inters, default=0))
        if overlaps[-1] > x:
            failures += [(i, reason) for reason in _overlap_failures(sets, x)]
    failures += [(i, f"set {j} admits no parity word through {i}") for i, j in unrealized]
    ordered = tuple(sorted(failures))
    return VerificationReport(
        ok=not ordered,
        overlaps=tuple(overlaps),
        failures=ordered,
        deep_checked=deep_checked,
    )
