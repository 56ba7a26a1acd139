"""Verification and discovery of recovering-set families.

A recovering set for coordinate i is a set R with i not in R such that c_i is
determined by the restriction c_R for every codeword c; for a linear code this
holds exactly when some dual word has a 1 at i and support inside R + {i}.
A family assigns each coordinate t such sets, each of size at most r, with
pairwise intersections of size at most x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DimensionTooLarge, FamilyNotFound, InvalidParams, _integer
from .gf2 import (
    BitMatrix,
    _as_matrix,
    _pack_rows,
    _parity_words,
    _record,
    _span_blocks,
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
                if type(s) is frozenset and all(type(e) is int for e in s)
                else frozenset(_integer(e, label) for e in s)
                for s in sets
            )
            for s in sets:
                if not s:
                    raise InvalidParams(f"coordinate {i}: empty recovering set")
                if i in s:
                    raise InvalidParams(f"coordinate {i}: set contains its own coordinate")
                if any(not 1 <= e <= n for e in s):
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
        reduced, pivots, *_ = _record(h)
        if len(pivots) > DUAL_ENUM_RANK_CAP:
            raise DimensionTooLarge(
                f"dual enumeration needs rank <= {DUAL_ENUM_RANK_CAP}, got {len(pivots)}"
            )
        blocks = _span_blocks(_pack_rows(reduced[: len(pivots)]))
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
    h: BitMatrix | np.ndarray, i: int, r: int, mode: str = ROWS_ONLY
) -> tuple[frozenset[int], ...]:
    """Candidate recovering sets for 1-based coordinate i: supports of dual
    words of weight <= r + 1 containing i, minus i itself. Deduplicated and
    sorted lexicographically. With the same ``mode`` this is row i of the
    table discover_family searches; note that the defaults differ
    (rows-only here, AUTO there). AUTO resolves as in resolve_search_mode.
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

    ``columns`` holds, 0-based and ascending, the columns other than the
    coordinate of the parity word ``recovery_parity_word`` would return for
    each recovering set, set after set and coordinate after coordinate; a
    set that admits no parity word holds none. Which word a set with several
    gets depends on the code, not on the rows of H. ``cuts[i]`` lists where
    each set of coordinate i + 1 starts in ``columns``, then where its last
    set ends. ``spans`` is the cuts as one array, each row padded with its
    last cut (a set that reads nothing). ``loads[i]`` maps each helper of
    coordinate i + 1, ascending, to how many of its sets read it; a repair
    trace gets a copy.
    ``pairs[2 * c + b]`` is the (helper, bit) pair ``(c + 1, b)``, an object
    array whose tuples every repair trace shares. ``unrealized`` lists the
    1-based (coordinate, set) pairs that admit no parity word, in order.
    """

    columns: np.ndarray
    cuts: tuple[tuple[int, ...], ...]
    spans: np.ndarray
    loads: tuple[dict[int, int], ...]
    pairs: np.ndarray
    unrealized: tuple[tuple[int, int], ...]


@lru_cache(maxsize=64)
def _realizing_helpers(h: BitMatrix, family: RecoveringFamily) -> _Realized:
    """The realizing-word table of ``family`` over H, which verification and
    repair share: the parity word of every recovering set, all found by one
    call of the parity-word kernel gf2._parity_words, over H's one
    elimination. Each coordinate's loads come from one counting pass over
    its helper columns, sorted so that the keys ascend. Counting one
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
        loads.append(load)
        unrealized += [(i, m - k + 1) for m in range(k, end) if not found[m]]
        k = end
    pairs = np.empty(2 * h.cols, dtype=object)
    for p in range(pairs.size):
        pairs[p] = (p // 2 + 1, p % 2)
    pairs.setflags(write=False)
    width = max(map(len, cuts))
    spans = np.array([c + c[-1:] * (width - len(c)) for c in cuts], dtype=np.intp)
    spans.setflags(write=False)
    return _Realized(columns, tuple(cuts), spans, tuple(loads), pairs, tuple(unrealized))


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
        max_int = 0
        for a, b in combinations(range(len(sets)), 2):
            inter = len(sets[a] & sets[b])
            max_int = max(max_int, inter)
            if inter > x:
                failures.append(
                    (i, f"sets {a + 1} and {b + 1} intersect in {inter} > x={x}")
                )
        overlaps.append(max_int)
    failures += [(i, f"set {j} admits no parity word through {i}") for i, j in unrealized]
    ordered = tuple(sorted(failures))
    return VerificationReport(
        ok=not ordered,
        overlaps=tuple(overlaps),
        failures=ordered,
        deep_checked=deep_checked,
    )
