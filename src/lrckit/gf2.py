"""Dense GF(2) linear algebra and binary linear code primitives.

Matrices are immutable wrappers over numpy uint8 arrays; all elimination is
XOR based. Codes are given by parity-check matrices H: the code is the right
nullspace of H, the dual code is the row space of H. Span enumeration works
on rows packed into uint64 limbs and streams fixed-size blocks.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

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

# Jobs per chunk of the parity-word kernel; a chunk's elimination holds two
# uint64 arrays of jobs x cols x ceil((rows + 1) / 64) limbs, and its words
# one uint8 array of jobs x cols.
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


def _as_array(matrix: BitMatrix | np.ndarray | Sequence) -> np.ndarray:
    if isinstance(matrix, BitMatrix):
        return matrix.array
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise InvalidParams("expected a two-dimensional binary matrix")
    return _binary(a, InvalidParams, "matrix entries must be 0 or 1")


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


def rref(matrix: BitMatrix | np.ndarray) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row echelon form over GF(2) and the pivot column indices."""
    a, pivots = _rref(_as_array(matrix).copy())
    return BitMatrix(a), pivots


def rank(matrix: BitMatrix | np.ndarray) -> int:
    """Rank over GF(2), by Gaussian elimination."""
    _, pivots = _rref(_as_array(matrix).copy())
    return len(pivots)


def nullspace_basis(matrix: BitMatrix | np.ndarray) -> BitMatrix:
    """Basis of the right nullspace of H, one vector per row.

    Rows are ordered by their free (non-pivot) column, ascending; each basis
    vector has a 1 at its free column and zeros at all other free columns, so
    the basis is systematic on the free positions. A full-rank input yields a
    0-row result.
    """
    a = _as_array(matrix)
    reduced, pivots = _rref(a.copy())
    cols = a.shape[1]
    free = np.delete(np.arange(cols), list(pivots))
    basis = np.zeros((free.size, cols), dtype=np.uint8)
    basis[np.arange(free.size), free] = 1
    # Pivot row ri reads c_p = sum over free f of R[ri, f] c_f.
    basis[:, list(pivots)] = reduced[: len(pivots), free].T
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
    a = _as_array(matrix)
    basis = nullspace_basis(a).array
    if basis.shape[0] > max_dim:
        raise DimensionTooLarge(f"code dimension {basis.shape[0]} exceeds cap {max_dim}")
    for block in _span_blocks(_pack_rows(basis)):
        yield _unpack_rows(block, a.shape[1])


def recovery_parity_word(
    matrix: BitMatrix | np.ndarray, target: int, helpers: Iterable[int]
) -> np.ndarray | None:
    """A row-space word w of H with w[target] = 1 and support within
    helpers + {target}, or None if no such parity check exists.

    ``target`` and ``helpers`` are 0-based column indices. Such a word
    certifies that coordinate ``target`` of every codeword is the XOR of the
    coordinates in w's support minus target. This is a one-job call of the
    parity-word kernel, rebuilt from its helper columns plus the target: the
    first row of H that qualifies is returned as is; failing that, w is the
    row combination the kernel's elimination finds. None is returned only
    when that linear system is inconsistent, so no such word exists.
    """
    a = _as_array(matrix)
    n = a.shape[1]
    if not 0 <= _integer(target, "target") < n:
        raise InvalidParams("target column out of range")
    # Read once: a one-shot iterable would be empty after the range check.
    helpers = [_integer(j, "helper") for j in helpers]
    if not all(0 <= j < n for j in helpers):
        raise InvalidParams("helper column out of range")
    columns, _, found = _parity_words(a, [(target, helpers)])
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
    a: np.ndarray, jobs: Sequence[tuple[int, Sequence[int]]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The word ``recovery_parity_word`` finds for every (target, helpers)
    job, 0-based columns already checked, as ``(columns, bounds, found)``:
    ``columns[bounds[k] : bounds[k + 1]]`` holds the ascending columns of
    job k's word other than its target, empty where ``found[k]`` is False.

    A job whose helpers + {target} hold some row of H with a 1 at the target
    takes the first such row, by one test over a chunk of jobs. The other
    jobs solve for the row mix u, one batched elimination per chunk of
    _BLOCK_JOBS jobs: the unknowns are the rows of H, the equations are the
    columns outside helpers + {target} (right-hand side 0) and the target
    column (right-hand side 1), each packed as rows + 1 bits. Unknowns are
    eliminated left to right on the first unused equation that holds them
    and free unknowns are 0, so u is the solution the oracle
    ``tests/oracles.py::solve_by_pivot_limit`` gives (a reduced echelon form
    is unique). An unused equation left holding its right-hand side means
    the system is inconsistent. The words are u H, formed one chunk of
    _BLOCK_JOBS jobs at a time, so no (jobs, n) array is ever held.
    """
    rows, n = a.shape
    mix = np.zeros((len(jobs), rows), dtype=np.uint8)
    found = np.zeros(len(jobs), dtype=bool)
    if not rows:
        return np.empty(0, dtype=np.intp), np.zeros(len(jobs) + 1, dtype=np.intp), found
    packed_rows = _pack_rows(a)
    misses = []
    for start in range(0, len(jobs), _BLOCK_JOBS):
        chunk = jobs[start : start + _BLOCK_JOBS]
        targets = [target for target, _ in chunk]
        outside = _pack_rows(~_allowed(n, chunk))
        fits = (a[:, targets].T == 1) & ~(outside[:, None, :] & packed_rows).any(axis=2)
        hit = fits.any(axis=1)
        ks = np.arange(start, start + len(chunk))
        mix[ks[hit], fits[hit].argmax(axis=1)] = 1
        found[ks[hit]] = True
        misses += ks[~hit].tolist()
    # Column c of H over the rows, with room for the right-hand side as bit
    # ``rows``; bit j of an equation is bit j % 64 of its limb j // 64.
    aug = np.zeros((n, rows + 1), dtype=np.uint8)
    aug[:, :rows] = a.T
    columns = _pack_rows(aug)
    bit = np.uint64(1) << np.arange(64, dtype=np.uint64)
    rhs_limb, rhs_bit = divmod(rows, 64)
    # One buffer of each kind serves every chunk.
    block = min(_BLOCK_JOBS, len(misses))
    equations = np.empty((2, block, n, columns.shape[1]), dtype=np.uint64)
    marks = np.empty((3, block, n), dtype=bool)
    for start in range(0, len(misses), _BLOCK_JOBS):
        ks = misses[start : start + _BLOCK_JOBS]
        chunk = [jobs[k] for k in ks]
        targets = [target for target, _ in chunk]
        each = np.arange(len(ks))
        eqs, flips = equations[:, : len(ks)]
        eqs[:] = columns
        eqs[_allowed(n, chunk)] = 0
        eqs[each, targets] = columns[targets]
        eqs[each, targets, rhs_limb] |= bit[rhs_bit]
        holds, candidates, used = marks[:, : len(ks)]
        used[:] = False
        # The equation holding each unknown's pivot; 0 for a free unknown.
        pivots = np.zeros((len(ks), rows), dtype=np.intp)
        pivoted = np.zeros((len(ks), rows), dtype=bool)
        for j in range(rows):
            # flips is scratch here: it is rewritten before it is read.
            np.bitwise_and(eqs[:, :, j >> 6], bit[j & 63], out=flips[:, :, 0])
            np.not_equal(flips[:, :, 0], 0, out=holds)
            # holds and not used: the equations that may take the pivot.
            np.greater(holds, used, out=candidates)
            p = candidates.argmax(axis=1)
            took = candidates[each, p]
            if not took.any():
                continue
            holds[each, p] = False
            holds &= took[:, None]
            # Add the pivot equation to every other equation holding j.
            np.multiply(eqs[each, p][:, None, :], holds[:, :, None], out=flips)
            eqs ^= flips
            used[each, p] |= took
            pivots[:, j] = p
            pivoted[:, j] = took
        np.bitwise_and(eqs[:, :, rhs_limb], bit[rhs_bit], out=flips[:, :, 0])
        rhs = flips[:, :, 0] != 0
        solvable = ~(rhs & ~used).any(axis=1)
        u = np.take_along_axis(rhs, pivots, axis=1) & pivoted
        mix[ks] = u & solvable[:, None]
        found[ks] = solvable
    parts = [np.empty(0, dtype=np.intp)]
    bounds = np.zeros(len(jobs) + 1, dtype=np.intp)
    for start in range(0, len(jobs), _BLOCK_JOBS):
        chunk = jobs[start : start + _BLOCK_JOBS]
        # uint8 sums wrap modulo 256, an even number, so their parity is exact.
        words = mix[start : start + len(chunk)] @ a
        words &= 1
        # The target is no helper; a job without a word has a zero row.
        words[np.arange(len(chunk)), [target for target, _ in chunk]] = 0
        parts.append(np.flatnonzero(words) % n)
        bounds[start + 1 : start + len(chunk) + 1] = np.count_nonzero(words, axis=1)
    return np.concatenate(parts), np.cumsum(bounds), found
