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
from itertools import combinations
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DimensionTooLarge, FamilyNotFound, InvalidParams, _integer
from .gf2 import (
    BitMatrix,
    _pack_rows,
    _parity_words,
    _span_blocks,
    _unpack_rows,
    rank,
    rref,
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
    order. Sets never contain their own coordinate and are nonempty.
    """

    n: int
    sets_by_coordinate: tuple[tuple[frozenset[int], ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1 or len(self.sets_by_coordinate) != self.n:
            raise InvalidParams("family must list sets for each of the n coordinates")
        for i, sets in enumerate(self.sets_by_coordinate, start=1):
            label = f"coordinate {i}: set member"
            for s in sets:
                if not s:
                    raise InvalidParams(f"coordinate {i}: empty recovering set")
                if i in s:
                    raise InvalidParams(f"coordinate {i}: set contains its own coordinate")
                if any(not 1 <= _integer(e, label) <= self.n for e in s):
                    raise InvalidParams(f"{label} out of range")
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

    rows-only: the rows themselves. bounded-combos: XORs of up to 3 rows.
    dual-enum: the entire row space (requires rank <= DUAL_ENUM_RANK_CAP),
    streamed in blocks so memory does not grow with 2**rank. Words may repeat.
    """
    if _integer(r, "r") < 1:
        raise InvalidParams("locality must be positive")
    if mode == ROWS_ONLY:
        blocks = [_pack_rows(h.array)]
    elif mode == BOUNDED_COMBOS:
        blocks = _row_combinations(_pack_rows(h.array))
    else:
        reduced, pivots = rref(h)
        if len(pivots) > DUAL_ENUM_RANK_CAP:
            raise DimensionTooLarge(
                f"dual enumeration needs rank <= {DUAL_ENUM_RANK_CAP}, got {len(pivots)}"
            )
        blocks = _span_blocks(_pack_rows(reduced.array[: len(pivots)]))
    kept = []
    for block in blocks:
        weights = np.bitwise_count(block).sum(axis=1, dtype=np.int64)
        kept.append(block[(weights >= 1) & (weights <= r + 1)])
    return np.concatenate(kept)


def _row_combinations(rows: np.ndarray) -> Iterator[np.ndarray]:
    """Blocks holding the XOR of every 1, 2 or 3 distinct packed rows, each
    combination once: the rows, then per leading row one block of pairs and
    one block of triples with the later rows."""
    yield rows
    for first in range(rows.shape[0] - 1):
        later = rows[first + 1 :]
        yield later ^ rows[first]
        a, b = np.triu_indices(later.shape[0], 1)
        yield later[a] ^ later[b] ^ rows[first]


def _candidate_table(
    h: BitMatrix, r: int, mode: str
) -> tuple[tuple[frozenset[int], ...], ...]:
    """Candidate recovering sets of every coordinate, as candidate_sets
    returns them, from one pass over the low-weight dual words of the
    resolved ``mode``."""
    n = h.cols
    found: list[set[frozenset[int]]] = [set() for _ in range(n)]
    for bits in _unpack_rows(_low_weight_words(h, r, mode), n):
        support = frozenset(int(j) + 1 for j in np.flatnonzero(bits))
        for i in support:
            found[i - 1].add(support - {i})
    return tuple(tuple(sorted(sets, key=sorted)) for sets in found)


def candidate_sets(
    h: BitMatrix, i: int, r: int, mode: str = ROWS_ONLY
) -> tuple[frozenset[int], ...]:
    """Candidate recovering sets for 1-based coordinate i: supports of dual
    words of weight <= r + 1 containing i, minus i itself. Deduplicated and
    sorted lexicographically. This is row i of the table discover_family
    searches; AUTO resolves as in resolve_search_mode."""
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
    h: BitMatrix, r: int, t: int, x: int, mode: str = AUTO
) -> RecoveringFamily:
    """Search a recovering-set family with parameters (r, t, x).

    Per coordinate, candidates are searched depth-first in lexicographic
    order, so the result is the lexicographically smallest family the mode
    can see. A candidate may repeat when its self-intersection obeys x.
    Raises FamilyNotFound (with the exhaustiveness of the search) on failure.
    """
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
    chosen: list[frozenset[int]] = []

    def descend(start: int) -> bool:
        if len(chosen) == t:
            return True
        for idx in range(start, len(cands)):
            s = cands[idx]
            if all(len(s & c) <= x for c in chosen):
                chosen.append(s)
                # Reuse of cands[idx] stays legal only if |s & s| <= x.
                nxt = idx if len(s) <= x else idx + 1
                if descend(nxt):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if descend(0) else None


class _Realized(NamedTuple):
    """What repair and verification need of a (matrix, family) pair.

    ``helpers[i][j]`` holds the ascending 1-based columns, other than
    coordinate i + 1, of the parity word ``recovery_parity_word`` would
    return for set j + 1 of that coordinate, or None when the set admits no
    parity word. Repair reads the same helpers as arrays: ``columns`` holds
    them 0-based, set after set and coordinate after coordinate, and
    ``cuts[i]`` lists where each set of coordinate i + 1 starts in it, then
    where its last set ends. ``loads[i]`` maps each helper of coordinate
    i + 1, ascending, to how many of its sets read it; a repair trace gets a
    copy. ``pairs[2 * c + b]`` is the (helper, bit) pair ``(c + 1, b)``, an
    object array whose tuples every repair trace shares. ``first_bad`` is the
    first 1-based coordinate with a None entry, or None.
    """

    helpers: tuple[tuple[tuple[int, ...] | None, ...], ...]
    columns: np.ndarray
    cuts: tuple[tuple[int, ...], ...]
    loads: tuple[dict[int, int], ...]
    pairs: np.ndarray
    first_bad: int | None


def _helper_columns(
    h: BitMatrix, family: RecoveringFamily
) -> tuple[np.ndarray, list[int], list[bool]]:
    """The 0-based columns other than the coordinate that the parity word of
    each recovering set reads, set after set in one flat array, with the
    offsets where each set's columns start and end and whether the set has a
    word at all: one call of the kernel gf2._parity_words."""
    jobs = [
        (i, [e - 1 for e in s])
        for i, sets in enumerate(family.sets_by_coordinate)
        for s in sets
    ]
    words, found = _parity_words(h.array, jobs)
    # The coordinate itself is no helper; a set without a word has a zero row.
    words[np.arange(len(jobs)), [i for i, _ in jobs]] = 0
    columns = np.flatnonzero(words)
    bounds = np.searchsorted(columns, np.arange(len(jobs) + 1) * h.cols).tolist()
    columns %= h.cols
    return columns, bounds, found.tolist()


@lru_cache(maxsize=64)
def _realizing_helpers(h: BitMatrix, family: RecoveringFamily) -> _Realized:
    """The realizing-word table of ``family`` over H, which verification and
    repair share: the parity word of every recovering set, all found by one
    call of the batched kernel."""
    columns, bounds, found = _helper_columns(h, family)
    columns.setflags(write=False)
    helpers = []
    cuts = []
    loads = []
    k = 0
    for sets in family.sets_by_coordinate:
        end = k + len(sets)
        lo = bounds[k]
        ids = (columns[lo : bounds[end]] + 1).tolist()
        helpers.append(
            tuple(
                tuple(ids[bounds[m] - lo : bounds[m + 1] - lo]) if found[m] else None
                for m in range(k, end)
            )
        )
        cuts.append(tuple(bounds[k : end + 1]))
        load = Counter(ids)
        loads.append({j: load[j] for j in sorted(load)})
        k = end
    first_bad = next((i + 1 for i, row in enumerate(helpers) if None in row), None)
    pairs = np.empty(2 * h.cols, dtype=object)
    for p in range(pairs.size):
        pairs[p] = (p // 2 + 1, p % 2)
    pairs.setflags(write=False)
    return _Realized(tuple(helpers), columns, tuple(cuts), tuple(loads), pairs, first_bad)


def verify_family(
    h: BitMatrix,
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
    inconsistent, so each None entry of the realizing-word table is one
    defect, reported once as "admits no parity word", with or without
    ``deep``. ``deep`` only sets ``deep_checked``, when the dimension is at
    most DEEP_CHECK_DIM_CAP: the separation verdict is that same entry, and
    no codeword is enumerated. Failures are data, not errors; r, t and x
    must be integers, but a value out of range is a failure.
    """
    if family.n != h.cols:
        raise InvalidParams("family length does not match matrix columns")
    r, t, x = _integer(r, "r"), _integer(t, "t"), _integer(x, "x")
    helpers = _realizing_helpers(h, family).helpers
    deep_checked = deep and h.cols - rank(h) <= DEEP_CHECK_DIM_CAP
    failures: list[tuple[int, str]] = []
    overlaps: list[int] = []
    for i, sets in enumerate(family.sets_by_coordinate, start=1):
        if len(sets) != t:
            failures.append((i, f"expected {t} recovering sets, found {len(sets)}"))
        for j, s in enumerate(sets, start=1):
            if len(s) > r:
                failures.append((i, f"set {j} has size {len(s)} > r={r}"))
        max_int = 0
        for a, b in combinations(range(len(sets)), 2):
            inter = len(sets[a] & sets[b])
            max_int = max(max_int, inter)
            if inter > x:
                failures.append(
                    (i, f"sets {a + 1} and {b + 1} intersect in {inter} > x={x}")
                )
        overlaps.append(max_int)
        for j, ids in enumerate(helpers[i - 1], start=1):
            if ids is None:
                failures.append((i, f"set {j} admits no parity word through {i}"))
    ordered = tuple(sorted(failures))
    return VerificationReport(
        ok=not ordered,
        overlaps=tuple(overlaps),
        failures=ordered,
        deep_checked=deep_checked,
    )
