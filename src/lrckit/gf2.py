"""Dense GF(2) linear algebra and binary linear code primitives.

Matrices are immutable wrappers over numpy uint8 arrays; all elimination is
XOR based. Codes are given by parity-check matrices H: the code is the right
nullspace of H, the dual code is the row space of H. Span enumeration works
on rows packed into uint64 limbs and streams fixed-size blocks.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionTooLarge, InvalidParams

__all__ = [
    "ENUMERATION_CAP",
    "INFINITE_DISTANCE",
    "BitMatrix",
    "rank",
    "rref",
    "nullspace_basis",
    "kronecker",
    "iter_codeword_blocks",
    "min_distance",
    "solve",
    "recovery_parity_word",
]

# Enumerating a code touches 2**dim words; past this the caller must opt in.
ENUMERATION_CAP = 25

# Minimum distance of the zero-dimensional code. Kept as a distinguished
# non-integer so distance-bound comparisons cannot silently treat it as data.
INFINITE_DISTANCE = math.inf

_BLOCK_BITS = 16


class BitMatrix:
    """Immutable dense binary matrix over GF(2)."""

    __slots__ = ("_a",)

    def __init__(self, entries) -> None:
        a = np.array(entries, dtype=np.uint8)
        if a.ndim != 2:
            raise InvalidParams("matrix entries must form a two-dimensional array")
        if a.shape[1] < 1:
            raise InvalidParams("matrix must have at least one column")
        if a.size and a.max() > 1:
            raise InvalidParams("matrix entries must be 0 or 1")
        a.setflags(write=False)
        self._a = a

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        if n < 1:
            raise InvalidParams("identity size must be positive")
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def ones(cls, rows: int, cols: int) -> "BitMatrix":
        if rows < 1 or cols < 1:
            raise InvalidParams("ones matrix must have positive shape")
        return cls(np.ones((rows, cols), dtype=np.uint8))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
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

    def row(self, i: int) -> np.ndarray:
        return self._a[i]

    def row_support(self, i: int) -> tuple[int, ...]:
        """0-based column indices of the ones in row i."""
        return tuple(int(j) for j in np.nonzero(self._a[i])[0])

    def column_support(self, j: int) -> tuple[int, ...]:
        """0-based row indices of the ones in column j."""
        return tuple(int(i) for i in np.nonzero(self._a[:, j])[0])

    def __getitem__(self, idx):
        return self._a[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self._a.shape == other._a.shape and np.array_equal(self._a, other._a)

    def __hash__(self) -> int:
        return hash((self._a.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def _as_array(matrix: BitMatrix | np.ndarray | Sequence) -> np.ndarray:
    if isinstance(matrix, BitMatrix):
        return matrix.array
    a = np.asarray(matrix, dtype=np.uint8)
    if a.ndim != 2:
        raise InvalidParams("expected a two-dimensional binary matrix")
    return a


def _rref(a: np.ndarray, pivot_cols: int | None = None) -> tuple[np.ndarray, tuple[int, ...]]:
    """In-place reduced row echelon form; pivots limited to the first
    ``pivot_cols`` columns (all columns if None). Returns (a, pivot tuple)."""
    rows, cols = a.shape
    limit = cols if pivot_cols is None else pivot_cols
    pivots: list[int] = []
    r = 0
    for c in range(limit):
        if r == rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
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


def kronecker(a: BitMatrix | np.ndarray, b: BitMatrix | np.ndarray) -> BitMatrix:
    """Kronecker product; 0/1 entries stay 0/1 without reduction."""
    return BitMatrix(np.kron(_as_array(a), _as_array(b)))


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


def _codeword_blocks(a: np.ndarray, max_dim: int) -> Iterator[np.ndarray]:
    """Packed codewords of the nullspace of H, as _span_blocks yields them;
    raises DimensionTooLarge past ``max_dim`` before enumerating anything."""
    basis = nullspace_basis(a).array
    if basis.shape[0] > max_dim:
        raise DimensionTooLarge(f"code dimension {basis.shape[0]} exceeds cap {max_dim}")
    return _span_blocks(_pack_rows(basis))


def iter_codeword_blocks(
    matrix: BitMatrix | np.ndarray, max_dim: int = ENUMERATION_CAP
) -> Iterator[np.ndarray]:
    """Yield the codewords of the nullspace of H in blocks of at most
    2**_BLOCK_BITS rows, in information-vector order."""
    a = _as_array(matrix)
    for block in _codeword_blocks(a, max_dim):
        yield _unpack_rows(block, a.shape[1])


def min_distance(
    matrix: BitMatrix | np.ndarray, max_dim: int = ENUMERATION_CAP
) -> int | float:
    """Minimum nonzero codeword weight, by full enumeration.

    Returns INFINITE_DISTANCE for the zero-dimensional code.
    """
    a = _as_array(matrix)
    best: int | float = INFINITE_DISTANCE
    for block in _codeword_blocks(a, max_dim):
        weights = np.bitwise_count(block).sum(axis=1, dtype=np.int64)
        nonzero = weights[weights > 0]
        if nonzero.size:
            best = min(best, int(nonzero.min()))
    return best


def solve(a: BitMatrix | np.ndarray, b: Sequence[int] | np.ndarray) -> np.ndarray | None:
    """One solution x of A x = b over GF(2), or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    coeff = _as_array(a)
    rhs = np.asarray(b, dtype=np.uint8).reshape(-1, 1)
    if rhs.shape[0] != coeff.shape[0]:
        raise InvalidParams("right-hand side length does not match row count")
    aug = np.hstack([coeff.copy(), rhs])
    n = coeff.shape[1]
    reduced, pivots = _rref(aug, pivot_cols=n)
    nrank = len(pivots)
    # Inconsistent iff some zero-coefficient row still demands a 1.
    if np.any(reduced[nrank:, n]):
        return None
    x = np.zeros(n, dtype=np.uint8)
    for ri, p in enumerate(pivots):
        x[p] = reduced[ri, n]
    return x


def recovery_parity_word(
    matrix: BitMatrix | np.ndarray, target: int, helpers: Sequence[int]
) -> np.ndarray | None:
    """A row-space word w of H with w[target] = 1 and support within
    helpers + {target}, or None if no such parity check exists.

    ``target`` and ``helpers`` are 0-based column indices. Such a word
    certifies that coordinate ``target`` of every codeword is the XOR of the
    coordinates in w's support minus target. None is returned only when the
    linear system for w is inconsistent, so no such word exists.
    """
    a = _as_array(matrix)
    n = a.shape[1]
    if not 0 <= target < n:
        raise InvalidParams("target column out of range")
    if not all(0 <= j < n for j in helpers):
        raise InvalidParams("helper column out of range")
    allowed = np.zeros(n, dtype=bool)
    allowed[list(helpers)] = True
    allowed[target] = True
    # Fast path: a single row of H already works.
    for i in range(a.shape[0]):
        row = a[i]
        if row[target] and not np.any(row & ~allowed):
            return row.copy()
    # Otherwise solve for a combination u of rows: zero outside the allowed
    # columns, one at the target.
    outside = np.nonzero(~allowed)[0]
    system = np.vstack([a[:, outside].T, a[:, target][None, :]])
    rhs = np.zeros(outside.size + 1, dtype=np.uint8)
    rhs[-1] = 1
    u = solve(system, rhs)
    if u is None:
        return None
    return (u @ a) & 1
