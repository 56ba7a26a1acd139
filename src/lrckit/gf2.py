"""Dense GF(2) linear algebra and binary linear code primitives.

Matrices are immutable wrappers over numpy uint8 arrays; all elimination is
XOR based. Codes are given by parity-check matrices H: the code is the right
nullspace of H, the dual code is the row space of H. One enumerator,
``_sum_blocks``, makes the XOR sums of rows packed into uint64 limbs and
streams them in fixed-size blocks: the codewords are all sums of the
nullspace basis, the low-weight dual words the small sums of rref(H)'s
rows. Each matrix is eliminated once, on its rows held as Python ints (bit
c is column c): ``_record`` keeps the rows of rref(H) in that form and their
pivots for the last 64 matrices, and rank, rref, the nullspace, codeword and
dual-word enumeration, the parity words, encoding and the parity test read
it. rref and the nullspace basis unpack the rows on each call; dual-word
enumeration packs them straight into limbs.
The parity-word kernel eliminates each distinct closure helpers + {target}
once, for all the jobs that share it, over the reduced rows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DimensionTooLarge, InvalidParams, _integer

__all__ = [
    "ENUMERATION_CAP",
    "BitMatrix",
    "rank",
    "rref",
    "nullspace_basis",
    "iter_codeword_blocks",
    "recovery_parity_word",
]

# Enumerating a code touches 2**dim words; past this the caller must opt in.
ENUMERATION_CAP = 25

_BLOCK_BITS = 16


class BitMatrix:
    """Immutable dense binary matrix over GF(2)."""

    __slots__ = ("_a", "_hash")

    def __init__(self, entries) -> None:
        a = np.asarray(entries)
        if a.ndim != 2:
            raise InvalidParams("matrix entries must form a two-dimensional array")
        if a.shape[1] < 1:
            raise InvalidParams("matrix must have at least one column")
        a = np.array(_binary(a, InvalidParams, "matrix entries must be 0 or 1"))
        a.setflags(write=False)
        self._a = a
        self._hash: int | None = None

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def array(self) -> np.ndarray:
        """Read-only uint8 view of the entries."""
        return self._a

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self._a.shape == other._a.shape and np.array_equal(self._a, other._a)

    def __hash__(self) -> int:
        # The entries are read-only, so the hash is computed once.
        if self._hash is None:
            self._hash = hash((self._a.shape, self._a.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def _binary(a: np.ndarray, error: type[Exception], message: str) -> np.ndarray:
    """``a`` as uint8, raising ``error(message)`` unless every entry equals 0
    or 1. Bools and 0.0/1.0 pass; a uint8 array is returned as is after one
    max."""
    if a.dtype != np.uint8:
        if not ((a == 0) | (a == 1)).all():
            raise error(message)
        return a.astype(np.uint8)
    if a.size and a.max() > 1:
        raise error(message)
    return a


def _as_matrix(matrix: BitMatrix | np.ndarray | Sequence) -> BitMatrix:
    if isinstance(matrix, BitMatrix):
        return matrix
    if np.ndim(matrix) != 2:
        raise InvalidParams("expected a two-dimensional binary matrix")
    return BitMatrix(matrix)


def _rref(rows: Iterable[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Reduced row echelon form of rows held as Python ints, bit c being
    column c. Each row is reduced by the rows kept so far; a nonzero
    remainder is kept with its lowest set bit as pivot, which is cleared from
    the kept rows. Returns the kept rows in pivot order and the pivots."""
    kept: dict[int, int] = {}
    pivot_bits = 0
    for row in rows:
        # A kept row has no 1 at any other pivot, so one pass clears them all.
        hits = row & pivot_bits
        while hits:
            low = hits & -hits
            row ^= kept[low.bit_length() - 1]
            hits ^= low
        if row:
            low = row & -row
            for c, other in kept.items():
                if other & low:
                    kept[c] = other ^ row
            kept[low.bit_length() - 1] = row
            pivot_bits |= low
    pivots = tuple(sorted(kept))
    return tuple(kept[c] for c in pivots), pivots


class _Reduced(NamedTuple):
    """One elimination of H: rref(H)'s rows as ints in pivot order, and their pivots."""

    rows: tuple[int, ...]
    pivots: tuple[int, ...]


@lru_cache(maxsize=64)
def _record(h: BitMatrix) -> _Reduced:
    """The one elimination of H, kept for each of the last 64 matrices."""
    return _Reduced(*_rref(map(_int_row, h.array)))


def _int_row(bits: np.ndarray) -> int:
    """A 0/1 vector as a Python int: bit c is entry c."""
    return int.from_bytes(np.packbits(bits, bitorder="little"), "little")


def _limbs(rows: Sequence[int], cols: int) -> np.ndarray:
    """Rows held as ints (see _int_row) as _pack_rows packs ``cols`` columns,
    read-only."""
    limbs = -(-cols // 64)
    data = b"".join(row.to_bytes(8 * limbs, "little") for row in rows)
    return np.frombuffer(data, "<u8").reshape(len(rows), limbs)


def rref(matrix: BitMatrix | np.ndarray) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row echelon form over GF(2), H's shape with its zero rows
    last, and the pivot column indices."""
    h = _as_matrix(matrix)
    rows, pivots = _record(h)
    rows += (0,) * (h.rows - len(rows))
    return BitMatrix(_unpack_rows(_limbs(rows, h.cols), h.cols)), pivots


def rank(matrix: BitMatrix | np.ndarray) -> int:
    """Rank over GF(2), by Gaussian elimination."""
    return len(_record(_as_matrix(matrix)).pivots)


def nullspace_basis(matrix: BitMatrix | np.ndarray) -> BitMatrix:
    """Basis of the right nullspace of H, one vector per row.

    Rows are ordered by their free (non-pivot) column, ascending; each basis
    vector has a 1 at its free column and zeros at all other free columns, so
    the basis is systematic on the free positions. A full-rank input yields a
    0-row result. The basis is built from H's record on each call.
    """
    h = _as_matrix(matrix)
    rows, pivots = _record(h)
    free = np.delete(np.arange(h.cols), pivots)
    basis = np.zeros((free.size, h.cols), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    # Pivot row ri reads c_p = sum over free f of R[ri, f] c_f.
    basis[:, list(pivots)] = _unpack_rows(_limbs(rows, h.cols), h.cols)[:, free].T
    return BitMatrix(basis)


def _pack_rows(a: np.ndarray) -> np.ndarray:
    """Rows of a 0/1 matrix as uint64 limbs, ceil(cols / 64) per row; column
    j is bit j % 64 of limb j // 64."""
    rows, cols = a.shape
    limbs = -(-cols // 64)
    padded = np.zeros((rows, limbs * 64), dtype=np.uint8)
    padded[:, :cols] = a
    packed = np.packbits(padded, axis=1, bitorder="little")
    return packed.view("<u8").astype(np.uint64)


def _unpack_rows(packed: np.ndarray, cols: int) -> np.ndarray:
    """Inverse of _pack_rows: uint8 rows of length ``cols``."""
    as_bytes = packed.astype("<u8").view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=cols, bitorder="little")


def _sum_count(rows: int, most: int) -> int:
    """How many sums of at most ``most`` distinct rows, the empty one
    included, ``rows`` rows have."""
    return sum(comb(rows, size) for size in range(min(most, rows) + 1))


def _sum_blocks(basis: np.ndarray, most: int) -> Iterator[np.ndarray]:
    """Every XOR of at most ``most`` distinct packed basis rows, the empty
    one included, each once, in blocks of at most 2**_BLOCK_BITS rows.

    The sums of the last rows, as many rows as one block holds, are tabled
    by size. Each sum of the other rows, by size, then yields the table's
    sums small enough to join it, XORed with it. Memory is the table and one
    block, whatever the rank. With ``most`` at least the number of rows
    these are all 2**rows sums, the last rows' table offset by each sum of
    the others."""
    most = min(most, basis.shape[0])
    low = basis.shape[0]
    while _sum_count(low, most) > 2**_BLOCK_BITS:
        low -= 1
    high = basis.shape[0] - low
    table, ends = _sum_table(basis[high:], most)
    yield table
    for size in range(1, min(most, high) + 1):
        for rows in combinations(range(high), size):
            yield table[: ends[most - size]] ^ np.bitwise_xor.reduce(basis[list(rows)])


def _sum_table(rows: np.ndarray, most: int) -> tuple[np.ndarray, list[int]]:
    """The XORs of at most ``most`` distinct packed rows, ordered by size and
    within a size by last row; ``ends[s]`` counts those of size <= s. A sum
    of s rows whose last row is j extends a sum of s - 1 rows before j, and
    those are the first comb(j, s - 1) sums of size s - 1."""
    count, limbs = rows.shape
    ends = [_sum_count(count, size) for size in range(most + 1)]
    table = np.zeros((ends[-1], limbs), dtype=np.uint64)
    for size in range(1, min(most, count) + 1):
        below = ends[size - 2] if size > 1 else 0
        filled = ends[size - 1]
        for j in range(size - 1, count):
            extended = comb(j, size - 1)
            np.bitwise_xor(
                table[below : below + extended],
                rows[j],
                out=table[filled : filled + extended],
            )
            filled += extended
    return table, ends


def iter_codeword_blocks(
    matrix: BitMatrix | np.ndarray, max_dim: int = ENUMERATION_CAP
) -> Iterator[np.ndarray]:
    """Every codeword of the nullspace of H once, in blocks of at most
    2**_BLOCK_BITS rows: all sums of the basis rows, by _sum_blocks. Checks
    its arguments at the call, raising DimensionTooLarge past ``max_dim``."""
    max_dim = _integer(max_dim, "max_dim")
    basis = nullspace_basis(matrix).array
    dim, cols = basis.shape
    if dim > max_dim:
        raise DimensionTooLarge(f"code dimension {dim} exceeds cap {max_dim}")
    return (_unpack_rows(block, cols) for block in _sum_blocks(_pack_rows(basis), dim))


def recovery_parity_word(
    matrix: BitMatrix | np.ndarray, target: int, helpers: Iterable[int]
) -> np.ndarray | None:
    """A row-space word w of H with w[target] = 1 and support within
    helpers + {target}, or None if no such parity check exists.

    ``target`` and ``helpers`` are 0-based column indices. Such a word
    certifies that coordinate ``target`` of every codeword is the XOR of the
    coordinates in w's support minus target. This is a one-job call of the
    parity-word kernel, rebuilt from its helper columns plus the target. When
    several words fit, w is the sum of the rows of rref(H) that the kernel's
    elimination picks among those with their pivot in helpers + {target}, so
    it depends on the code (its row space and column order), not on the rows
    of H. None is returned only when that linear system is inconsistent, so
    no such word exists.
    """
    h = _as_matrix(matrix)
    n = h.cols
    target = _integer(target, "target")
    if not 0 <= target < n:
        raise InvalidParams("target column out of range")
    # Read once: a one-shot iterable would be empty after the range check.
    helpers = [_integer(j, "helper") for j in helpers]
    if not all(0 <= j < n for j in helpers):
        raise InvalidParams("helper column out of range")
    columns, _, found = _parity_words(h, [(target, helpers)])
    if not found[0]:
        return None
    word = np.zeros(n, dtype=np.uint8)
    word[columns] = 1
    word[target] = 1
    return word


def _parity_words(
    h: BitMatrix, jobs: Sequence[tuple[int, Sequence[int]]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The word ``recovery_parity_word`` finds for every (target, helpers)
    job, 0-based columns already checked, as ``(columns, bounds, found)``:
    ``columns[bounds[k] : bounds[k + 1]]`` holds the ascending columns of
    job k's word other than its target, empty where ``found[k]`` is False.

    The rows of rref(H) come from H's record, as Python ints (bit c is
    column c). A row-space word is the sum of the reduced rows at the pivot
    columns where it has a 1, so a job's word is a sum of the reduced rows
    whose pivot lies in its closure T = helpers + {target}. Jobs are grouped
    by T, and each distinct T is eliminated once (``_closed_words``): its
    rows go in pivot order into a basis of their columns outside T, and each
    row that reduces to zero closes a word supported in T. A job's word is
    the first closed word, in pivot order, with a 1 at its target; with none
    there is no word.

    This is the word of the job solved on its own. That solve takes the
    same rows in pivot order, masked to the target and the columns outside
    T, keeps each row its kept rows do not span, and returns the one sum of
    kept rows whose masked sum is the target bit alone. A row independent
    outside T is kept by both. The first row that closes a word through
    the target is kept, and its closed word (its row plus earlier kept rows,
    by its pivot bits) masks to the target bit alone: it is that sum. Every
    other row that closes a word is left out, spanned at the target too
    before that row and with the target bit after it. Without such a word,
    every sum of rows that vanishes outside T is a sum of closed words and
    misses the target, so the job has no word. The per-job solution is the
    one the oracle ``tests/oracles.py::solve_by_pivot_limit`` gives (a
    reduced echelon form is unique), so the words are its words. They depend
    on the row space of H and its column order, not on its rows.
    """
    record = _record(h)
    row_at = dict(zip(record.pivots, record.rows))
    # A word's helper columns lie among its job's helpers, so one array of
    # all the helpers' length holds every word, and no column is copied.
    columns = np.empty(sum(len(helpers) for _, helpers in jobs), dtype=np.intp)
    filled = 0
    bounds = np.zeros(len(jobs) + 1, dtype=np.intp)
    found = np.zeros(len(jobs), dtype=bool)
    # Each closure is eliminated once, keyed on its columns sorted: jobs that
    # list the same columns, helpers and target, share the elimination.
    closed: dict[tuple[int, ...], list[tuple[int, list[int]]]] = {}
    for k, (target, helpers) in enumerate(jobs):
        # Columns may be numpy integers, which cannot shift past 63 bits.
        target = int(target)
        key = tuple(sorted((*helpers, target)))
        words = closed.get(key)
        if words is None:
            words = closed[key] = _closed_words(row_at, key)
        for word, support in words:
            if word >> target & 1:
                ids = list(support)
                ids.remove(target)
                columns[filled : filled + len(ids)] = ids
                filled += len(ids)
                found[k] = True
                break
        bounds[k + 1] = filled
    return columns[:filled], bounds, found


def _closed_words(
    row_at: dict[int, int], key: tuple[int, ...]
) -> list[tuple[int, list[int]]]:
    """The row-space words one elimination closes inside the closure
    ``key`` lists, in pivot order, each with its ascending support. The
    reduced rows pivoting in the closure, masked to the columns outside it,
    go in pivot order into a basis keyed on each masked sum's top bit; a row
    that reduces to zero closes its unmasked sum."""
    closure = sorted({*map(int, key)})
    keep = ~sum(1 << c for c in closure)
    basis: dict[int, tuple[int, int]] = {}
    words = []
    # Pivots ascend, so the rows of the closure's pivots come in pivot order.
    for row in [row_at[c] for c in closure if c in row_at]:
        masked, word = _reduce(basis, row & keep, row)
        if masked:
            basis[masked.bit_length() - 1] = masked, word
        else:
            words.append((word, [c for c in closure if word >> c & 1]))
    return words


def _reduce(basis: dict[int, tuple[int, int]], masked: int, word: int) -> tuple[int, int]:
    """Reduce a masked sum against a basis keyed on top bits, adding each
    entry's unmasked sum to ``word``; a nonzero remainder lies outside the
    basis's span."""
    while masked and (entry := basis.get(masked.bit_length() - 1)):
        masked ^= entry[0]
        word ^= entry[1]
    return masked, word
