"""Dense GF(2) linear algebra and binary linear code primitives.

Matrices are immutable wrappers over numpy uint8 arrays; all elimination is
XOR based. Codes are given by parity-check matrices H: the code is the right
nullspace of H, the dual code is the row space of H. Span enumeration works
on rows packed into uint64 limbs and streams fixed-size blocks.
"""

from __future__ import annotations

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
    "solve",
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


def solve(a: BitMatrix | np.ndarray, b: Sequence[int] | np.ndarray) -> np.ndarray | None:
    """One solution x of A x = b over GF(2), or None if inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    coeff = _as_array(a)
    rhs = np.asarray(b).reshape(-1, 1)
    rhs = _binary(rhs, InvalidParams, "matrix entries must be 0 or 1")
    if rhs.shape[0] != coeff.shape[0]:
        raise InvalidParams("right-hand side length does not match row count")
    n = coeff.shape[1]
    reduced, pivots = _rref(np.hstack([coeff, rhs]))
    # The right-hand column is eliminated last, so it takes a pivot iff some
    # row reduces to 0 = 1.
    if pivots and pivots[-1] == n:
        return None
    x = np.zeros(n, dtype=np.uint8)
    x[list(pivots)] = reduced[: len(pivots), n]
    return x


def recovery_parity_word(
    matrix: BitMatrix | np.ndarray, target: int, helpers: Iterable[int]
) -> np.ndarray | None:
    """A row-space word w of H with w[target] = 1 and support within
    helpers + {target}, or None if no such parity check exists.

    ``target`` and ``helpers`` are 0-based column indices. Such a word
    certifies that coordinate ``target`` of every codeword is the XOR of the
    coordinates in w's support minus target. The first row of H that
    qualifies is returned as is; failing that, w comes from one solve over
    the rows. None is returned only when the linear system for w is
    inconsistent, so no such word exists.
    """
    a = _as_array(matrix)
    n = a.shape[1]
    if not 0 <= _integer(target, "target") < n:
        raise InvalidParams("target column out of range")
    # Read once: a one-shot iterable would be empty after the range check.
    helpers = [_integer(j, "helper") for j in helpers]
    if not all(0 <= j < n for j in helpers):
        raise InvalidParams("helper column out of range")
    allowed = np.zeros(n, dtype=bool)
    allowed[helpers] = True
    allowed[target] = True
    outside = np.flatnonzero(~allowed)
    # Fast path: the first row of H that already works.
    fits = (a[:, target] == 1) & ~a[:, outside].any(axis=1)
    if fits.any():
        return a[fits.argmax()].copy()
    # Otherwise solve for a combination u of rows: zero outside the allowed
    # columns, one at the target.
    system = np.vstack([a[:, outside].T, a[:, target][None, :]])
    rhs = np.zeros(outside.size + 1, dtype=np.uint8)
    rhs[-1] = 1
    u = solve(system, rhs)
    if u is None:
        return None
    return (u @ a) & 1
