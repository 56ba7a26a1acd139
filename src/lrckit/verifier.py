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
from typing import Iterator

import numpy as np

from .errors import DimensionTooLarge, FamilyNotFound, InvalidParams
from .gf2 import (
    BitMatrix,
    _pack_rows,
    _span_blocks,
    _unpack_rows,
    rank,
    recovery_parity_word,
    rref,
)

__all__ = [
    "ROWS_ONLY",
    "DUAL_ENUM",
    "BOUNDED_COMBOS",
    "AUTO",
    "DUAL_ENUM_RANK_CAP",
    "RecoveringFamily",
    "CoordinateCheck",
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
            for s in sets:
                if not s:
                    raise InvalidParams(f"coordinate {i}: empty recovering set")
                if i in s:
                    raise InvalidParams(f"coordinate {i}: set contains its own coordinate")
                if any(not 1 <= e <= self.n for e in s):
                    raise InvalidParams(f"coordinate {i}: set member out of range")


@dataclass(frozen=True)
class CoordinateCheck:
    """Per-coordinate verification record."""

    coordinate: int
    sets: tuple[frozenset[int], ...]
    max_size: int
    max_intersection: int


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    per_coordinate: tuple[CoordinateCheck, ...]
    failures: tuple[tuple[int, str], ...]
    deep_checked: bool


def _low_weight_words(h: BitMatrix, r: int, mode: str) -> np.ndarray:
    """Packed nonzero dual words of weight <= r + 1, per search mode.

    rows-only: the rows themselves. bounded-combos: XORs of up to 3 rows.
    dual-enum: the entire row space (requires rank <= DUAL_ENUM_RANK_CAP),
    streamed in blocks so memory does not grow with 2**rank. Words may repeat.
    """
    if r < 1:
        raise InvalidParams("locality must be positive")
    if mode == ROWS_ONLY:
        blocks = [_pack_rows(h.array)]
    elif mode == BOUNDED_COMBOS:
        blocks = _row_combinations(_pack_rows(h.array))
    elif mode == DUAL_ENUM:
        reduced, pivots = rref(h)
        if len(pivots) > DUAL_ENUM_RANK_CAP:
            raise DimensionTooLarge(
                f"dual enumeration needs rank <= {DUAL_ENUM_RANK_CAP}, got {len(pivots)}"
            )
        blocks = _span_blocks(_pack_rows(reduced.array[: len(pivots)]))
    else:
        raise InvalidParams(f"unknown search mode {mode!r}")
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


def _candidates_at(
    words: np.ndarray, n: int, coordinates: range
) -> list[tuple[frozenset[int], ...]]:
    """Per 1-based coordinate i: the supports of the packed words through i,
    minus i, deduplicated and sorted lexicographically."""
    found: dict[int, set[frozenset[int]]] = {i: set() for i in coordinates}
    for bits in _unpack_rows(words, n):
        support = frozenset(int(j) + 1 for j in np.flatnonzero(bits))
        for i in support & found.keys():
            found[i].add(support - {i})
    return [tuple(sorted(found[i], key=sorted)) for i in coordinates]


def _candidate_table(
    h: BitMatrix, r: int, mode: str
) -> tuple[tuple[frozenset[int], ...], ...]:
    """Candidate recovering sets of every coordinate, as candidate_sets
    returns them, from one pass over the low-weight dual words."""
    words = _low_weight_words(h, r, mode)
    return tuple(_candidates_at(words, h.cols, range(1, h.cols + 1)))


def candidate_sets(
    h: BitMatrix, i: int, r: int, mode: str = ROWS_ONLY
) -> tuple[frozenset[int], ...]:
    """Candidate recovering sets for 1-based coordinate i: supports of dual
    words of weight <= r + 1 containing i, minus i itself. Deduplicated and
    sorted lexicographically."""
    if not 1 <= i <= h.cols:
        raise InvalidParams(f"coordinate {i} out of range 1..{h.cols}")
    words = _low_weight_words(h, r, mode)
    limb, bit = divmod(i - 1, 64)
    through = (words[:, limb] >> np.uint64(bit)) & np.uint64(1) == 1
    return _candidates_at(words[through], h.cols, range(i, i + 1))[0]


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
    if t < 1 or x < 0:
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


@lru_cache(maxsize=64)
def _realizing_helpers(
    h: BitMatrix, family: RecoveringFamily
) -> tuple[tuple[tuple[tuple[int, ...] | None, ...], ...], int | None]:
    """Per coordinate and per recovering set: the ascending 0-based columns,
    other than the coordinate's own, of the word ``recovery_parity_word``
    finds for them, or None when the set admits no parity word. Also the
    first 1-based coordinate with such a set, or None. Verification and
    repair share this table."""
    table = []
    first_bad = None
    for i, sets in enumerate(family.sets_by_coordinate):
        helpers = []
        for s in sets:
            word = recovery_parity_word(h, i, [e - 1 for e in s])
            if word is None:
                helpers.append(None)
                if first_bad is None:
                    first_bad = i + 1
            else:
                support = np.flatnonzero(word).tolist()
                helpers.append(tuple(j for j in support if j != i))
        table.append(tuple(helpers))
    return tuple(table), first_bad


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
    inconsistent, so each None entry of the realizing-word table is a
    separation failure. With ``deep`` and dimension <= DEEP_CHECK_DIM_CAP,
    those entries are also reported as separation failures and
    ``deep_checked`` is set; no codeword is enumerated. Failures are data,
    not errors.
    """
    if family.n != h.cols:
        raise InvalidParams("family length does not match matrix columns")
    table, _ = _realizing_helpers(h, family)
    deep_checked = deep and h.cols - rank(h) <= DEEP_CHECK_DIM_CAP
    failures: list[tuple[int, str]] = []
    checks: list[CoordinateCheck] = []
    for i, sets in enumerate(family.sets_by_coordinate, start=1):
        if len(sets) != t:
            failures.append((i, f"expected {t} recovering sets, found {len(sets)}"))
        sizes = tuple(len(s) for s in sets)
        for j, size in enumerate(sizes, start=1):
            if size > r:
                failures.append((i, f"set {j} has size {size} > r={r}"))
        max_int = 0
        for a, b in combinations(range(len(sets)), 2):
            inter = len(sets[a] & sets[b])
            max_int = max(max_int, inter)
            if inter > x:
                failures.append(
                    (i, f"sets {a + 1} and {b + 1} intersect in {inter} > x={x}")
                )
        for j, helpers in enumerate(table[i - 1], start=1):
            if helpers is None:
                failures.append((i, f"set {j} admits no parity word through {i}"))
                if deep_checked:
                    failures.append((i, f"set {j} fails codeword separation"))
        checks.append(
            CoordinateCheck(
                coordinate=i,
                sets=sets,
                max_size=max(sizes, default=0),
                max_intersection=max_int,
            )
        )
    ordered = tuple(sorted(failures))
    return VerificationReport(
        ok=not ordered,
        per_coordinate=tuple(checks),
        failures=ordered,
        deep_checked=deep_checked,
    )
