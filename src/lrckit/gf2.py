"""Dense GF(2) linear algebra and binary linear code primitives.

Matrices are immutable wrappers over numpy uint8 arrays; all elimination is
XOR based. Codes are given by parity-check matrices H: the code is the right
nullspace of H, the dual code is the row space of H. Span enumeration works
on rows packed into uint64 limbs and streams fixed-size blocks. Each matrix
is eliminated once: ``_record`` keeps its reduced form for the last 64
matrices, and rank, rref, the nullspace, codeword and dual-word enumeration,
the parity words, encoding and repair's parity test read it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
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

# Jobs per chunk of the parity-word kernel; a chunk's elimination holds one
# uint64 array of jobs x cols x ceil((unknowns + 1) / 64) limbs, with at most
# |helpers| + 1 unknowns per job, and one uint64 scratch limb of jobs x cols;
# its words take one uint8 array of jobs x cols.
_BLOCK_JOBS = 2**6


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

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        if _integer(n, "identity size") < 1:
            raise InvalidParams("identity size must be positive")
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def ones(cls, rows: int, cols: int) -> "BitMatrix":
        if _integer(rows, "rows") < 1 or _integer(cols, "cols") < 1:
            raise InvalidParams("ones matrix must have positive shape")
        return cls(np.ones((rows, cols), dtype=np.uint8))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        if _integer(rows, "rows") < 0 or _integer(cols, "cols") < 1:
            raise InvalidParams("zeros matrix needs rows >= 0 and cols >= 1")
        return cls(np.zeros((rows, cols), dtype=np.uint8))

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

    def _index(self, value: int, axis: int) -> int:
        """``value`` as a 0-based row (axis 0) or column (axis 1) index;
        negative indices count as out of range."""
        name = ("row", "column")[axis]
        index = _integer(value, name)
        size = self._a.shape[axis]
        if not 0 <= index < size:
            raise InvalidParams(f"{name} {index} out of range for {size} {name}s")
        return index

    def row(self, i: int) -> np.ndarray:
        return self._a[self._index(i, 0)]

    def row_support(self, i: int) -> tuple[int, ...]:
        """0-based column indices of the ones in row i."""
        return tuple(int(j) for j in np.nonzero(self._a[self._index(i, 0)])[0])

    def column_support(self, j: int) -> tuple[int, ...]:
        """0-based row indices of the ones in column j."""
        return tuple(int(i) for i in np.nonzero(self._a[:, self._index(j, 1)])[0])

    def __getitem__(self, idx):
        return self._a[idx]

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


def _rref(a: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """In-place reduced row echelon form, columns eliminated left to right,
    stopping once the rows below the last pivot are zero. Returns (a, pivot
    tuple)."""
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    stale = True
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            # Once rows r.. are zero no pivot is left. They change only when
            # a pivot is taken, so they are tested once per pivot.
            if stale:
                if not a[r:].any():
                    break
                stale = False
            continue
        stale = True
        p = r + int(hits[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] ^= a[r]
        pivots.append(c)
        r += 1
    return a, tuple(pivots)


class _Reduced(NamedTuple):
    """One elimination of H, read-only: rref(H) and a zero row under it (the
    kernel's padding unknown), the pivots, the systematic nullspace basis
    and the nonzero rows' columns as uint64 limbs, which check what H does."""

    reduced: np.ndarray
    pivots: tuple[int, ...]
    basis: np.ndarray
    columns: np.ndarray


@lru_cache(maxsize=64)
def _record(h: BitMatrix) -> _Reduced:
    """The one elimination of H, kept for each of the last 64 matrices."""
    reduced, pivots = _rref(np.vstack([h.array, np.zeros((1, h.cols), np.uint8)]))
    free = np.delete(np.arange(h.cols), pivots)
    basis = np.zeros((free.size, h.cols), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    # Pivot row ri reads c_p = sum over free f of R[ri, f] c_f.
    basis[:, list(pivots)] = reduced[: len(pivots), free].T
    columns = _pack_rows(reduced[: len(pivots)].T)
    for array in (reduced, basis, columns):
        array.setflags(write=False)
    return _Reduced(reduced, pivots, basis, columns)


def rref(matrix: BitMatrix | np.ndarray) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row echelon form over GF(2) and the pivot column indices."""
    record = _record(_as_matrix(matrix))
    return BitMatrix(record.reduced[:-1]), record.pivots


def rank(matrix: BitMatrix | np.ndarray) -> int:
    """Rank over GF(2), by Gaussian elimination."""
    return len(_record(_as_matrix(matrix)).pivots)


def nullspace_basis(matrix: BitMatrix | np.ndarray) -> BitMatrix:
    """Basis of the right nullspace of H, one vector per row.

    Rows are ordered by their free (non-pivot) column, ascending; each basis
    vector has a 1 at its free column and zeros at all other free columns, so
    the basis is systematic on the free positions. A full-rank input yields a
    0-row result.
    """
    return BitMatrix(_record(_as_matrix(matrix)).basis)


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


def _xor_combinations(rows: np.ndarray) -> np.ndarray:
    """All 2**len(rows) XOR combinations of packed rows, by doubling, in
    information-vector order (first row = most significant bit)."""
    combos = np.zeros((1, rows.shape[1]), dtype=np.uint64)
    for row in rows[::-1]:
        combos = np.concatenate([combos, combos ^ row])
    return combos


def _span_blocks(basis: np.ndarray) -> Iterator[np.ndarray]:
    """Every XOR combination of the packed basis rows, in blocks of at most
    2**_BLOCK_BITS rows, in information-vector order. Memory is one block
    plus the 2**(dim - _BLOCK_BITS) block offsets, whatever the dimension."""
    high = max(basis.shape[0] - _BLOCK_BITS, 0)
    low = _xor_combinations(basis[high:])
    for offset in _xor_combinations(basis[:high]):
        yield low ^ offset


def iter_codeword_blocks(
    matrix: BitMatrix | np.ndarray, max_dim: int = ENUMERATION_CAP
) -> Iterator[np.ndarray]:
    """Yield the codewords of the nullspace of H in blocks of at most
    2**_BLOCK_BITS rows, in information-vector order; raises
    DimensionTooLarge past ``max_dim`` before enumerating anything."""
    basis = _record(_as_matrix(matrix)).basis
    if basis.shape[0] > max_dim:
        raise DimensionTooLarge(f"code dimension {basis.shape[0]} exceeds cap {max_dim}")
    for block in _span_blocks(_pack_rows(basis)):
        yield _unpack_rows(block, basis.shape[1])


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


def _allowed(n: int, jobs: Sequence[tuple[int, Sequence[int]]]) -> np.ndarray:
    """(jobs, n) bool mask of each job's helpers + {target}."""
    sizes = [len(helpers) for _, helpers in jobs]
    members = chain.from_iterable(helpers for _, helpers in jobs)
    mask = np.zeros((len(jobs), n), dtype=bool)
    mask[
        np.repeat(np.arange(len(jobs)), sizes),
        np.fromiter(members, dtype=np.intp, count=sum(sizes)),
    ] = True
    mask[np.arange(len(jobs)), [target for target, _ in jobs]] = True
    return mask


def _parity_words(
    h: BitMatrix, jobs: Sequence[tuple[int, Sequence[int]]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The word ``recovery_parity_word`` finds for every (target, helpers)
    job, 0-based columns already checked, as ``(columns, bounds, found)``:
    ``columns[bounds[k] : bounds[k + 1]]`` holds the ascending columns of
    job k's word other than its target, empty where ``found[k]`` is False.

    The reduced rows come from H's record. A row-space word is the sum of
    the reduced rows at the pivot columns where it has a 1, so a job's
    unknowns are the reduced rows whose pivot lies in helpers + {target}, in
    pivot order, padded with the record's zero row to the widest job of its
    chunk. One batched elimination per chunk of _BLOCK_JOBS jobs solves for
    them: the equations are the columns outside helpers + {target}
    (right-hand side 0) and the target column (right-hand side 1), each
    packed as unknowns + 1 bits. Unknowns are eliminated left to right on
    the first unused equation that holds them and free unknowns are 0, so
    the solution is the one the oracle
    ``tests/oracles.py::solve_by_pivot_limit`` gives (a reduced echelon form
    is unique). An unused equation left holding its right-hand side means
    the system is inconsistent. The word is the sum of the solved rows, so
    it depends on the row space of H and its column order, not on its rows.
    """
    n = h.cols
    basis, pivots, *_ = _record(h)
    rank = len(pivots)
    bit = np.uint64(1) << np.arange(64, dtype=np.uint64)
    # A word's helper columns lie among its job's helpers, so one array of
    # all the helpers' length holds every word, and no column is copied.
    columns = np.empty(sum(len(helpers) for _, helpers in jobs), dtype=np.intp)
    filled = 0
    bounds = np.zeros(len(jobs) + 1, dtype=np.intp)
    found = np.zeros(len(jobs), dtype=bool)
    for start in range(0, len(jobs), _BLOCK_JOBS):
        chunk = jobs[start : start + _BLOCK_JOBS]
        targets = [target for target, _ in chunk]
        each = np.arange(len(chunk))
        inside = _allowed(n, chunk)
        # Row ``rank`` of the basis is the zero row that pads the unknowns.
        unknowns = np.where(inside[:, list(pivots)], np.arange(rank), rank)
        unknowns.sort(axis=1)
        width = int(np.count_nonzero(unknowns < rank, axis=1).max())
        unknowns = unknowns[:, :width]
        # Bit j of an equation is bit j % 64 of its limb j // 64; the
        # right-hand side is bit ``width``.
        eqs = np.zeros((len(chunk), n, width // 64 + 1), dtype=np.uint64)
        # Scratch for one limb of every equation; rewritten before it is read.
        limb = np.empty((len(chunk), n), dtype=np.uint64)
        for j in range(width):
            np.multiply(basis[unknowns[:, j]], bit[j & 63], out=limb)
            eqs[:, :, j >> 6] |= limb
        inside[each, targets] = False
        eqs[inside] = 0
        eqs[each, targets, width >> 6] |= bit[width & 63]
        holds = np.empty((len(chunk), n), dtype=bool)
        candidates = np.empty_like(holds)
        used = np.zeros_like(holds)
        # The equation holding each unknown's pivot; 0 for a free unknown.
        pivot_of = np.zeros((len(chunk), width), dtype=np.intp)
        pivoted = np.zeros((len(chunk), width), dtype=bool)
        for j in range(width):
            np.bitwise_and(eqs[:, :, j >> 6], bit[j & 63], out=limb)
            np.not_equal(limb, 0, out=holds)
            # holds and not used: the equations that may take the pivot.
            np.greater(holds, used, out=candidates)
            p = candidates.argmax(axis=1)
            took = candidates[each, p]
            if not took.any():
                continue
            holds[each, p] = False
            holds &= took[:, None]
            # Add the pivot equation to every other equation holding j.
            k, e = np.nonzero(holds)
            eqs[k, e] ^= eqs[k, p[k]]
            used[each, p] |= took
            pivot_of[:, j] = p
            pivoted[:, j] = took
        np.bitwise_and(eqs[:, :, width >> 6], bit[width & 63], out=limb)
        rhs = limb != 0
        solvable = ~(rhs & ~used).any(axis=1)
        solution = np.take_along_axis(rhs, pivot_of, axis=1) & pivoted
        solution &= solvable[:, None]
        words = np.zeros((len(chunk), n), dtype=np.uint8)
        for j in range(width):
            words ^= basis[unknowns[:, j]] * solution[:, j, None]
        # The target is no helper; a job without a word has a zero row.
        words[each, targets] = 0
        ids = np.flatnonzero(words) % n
        columns[filled : filled + ids.size] = ids
        filled += ids.size
        bounds[start + 1 : start + len(chunk) + 1] = np.count_nonzero(words, axis=1)
        found[start : start + len(chunk)] = solvable
    return columns[:filled], np.cumsum(bounds), found
