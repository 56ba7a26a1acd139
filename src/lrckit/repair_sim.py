"""Erasure repair over recovering sets, with helper-load accounting.

Each recovering set is realized by a parity word of the matrix through the
erased coordinate; the lost symbol is the XOR of the helpers the word reads.
Everything that does not depend on the codeword comes from two bounded
caches. Per matrix (64 of them), ``_matrix_record`` holds the systematic
nullspace basis that encodes messages and H's columns packed into 64-bit
limbs for the parity test. Per (matrix, family), the verifier's
realizing-word table holds each set's helpers as one flat column array with
offsets, each coordinate's helper loads and the shared (helper, bit) pairs;
``verify_family`` builds it with one call of the batched parity-word kernel
``gf2._parity_words``. So an encode is one product with the basis, and a
repair costs its input checks, one packed parity test and one gather of the
helper bits: no parity word is found and nothing is eliminated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InvalidCodeword, InvalidParams, _integer
from .gf2 import BitMatrix, _as_array, _binary, _pack_rows, nullspace_basis
from .verifier import RecoveringFamily, _realizing_helpers

__all__ = ["RepairTrace", "systematic_encode", "simulate_repair"]


@dataclass(frozen=True, eq=False)
class RepairTrace:
    """One erased coordinate repaired independently by each of its sets.

    ``recoveries[j]`` lists the (helper, value read) pairs used by set j + 1,
    helpers ascending; ``recovered_values[j]`` is their XOR. ``helper_load``
    counts how many sets read each helper.
    """

    erased: int
    recoveries: tuple[tuple[tuple[int, int], ...], ...]
    recovered_values: tuple[int, ...]
    helper_load: Mapping[int, int]


class _MatrixRecord(NamedTuple):
    """What encoding and the parity test need of a matrix: the systematic
    nullspace basis, one vector per row, and H's columns packed as uint64
    limbs (column j of H is row j). Both are read-only."""

    basis: np.ndarray
    columns: np.ndarray


@lru_cache(maxsize=64)
def _matrix_record(h: BitMatrix) -> _MatrixRecord:
    columns = _pack_rows(h.array.T)
    columns.setflags(write=False)
    return _MatrixRecord(nullspace_basis(h).array, columns)


def _fails_checks(h: BitMatrix, cw: np.ndarray) -> bool:
    """Whether the 0/1 uint8 vector ``cw`` fails a parity check of H: the
    XOR of H's packed columns at the ones of ``cw`` is its syndrome."""
    ones = _matrix_record(h).columns[cw.view(bool)]
    return bool(np.bitwise_xor.reduce(ones).any())


def systematic_encode(h: BitMatrix | np.ndarray, message: Sequence[int]) -> np.ndarray:
    """Embed a length-(cols - rank) message at the pivot-free columns of the
    reduced parity-check matrix and fill the pivot columns to satisfy every
    check: the message times the systematic nullspace basis. The basis is
    eliminated once per matrix and kept for the last 64 matrices, so an
    encode is one product. The zero message encodes to the zero codeword."""
    if not isinstance(h, BitMatrix):
        h = BitMatrix(_as_array(h))
    basis = _matrix_record(h).basis
    msg = np.asarray(message)
    if msg.ndim != 1 or msg.shape[0] != basis.shape[0]:
        raise InvalidParams(f"message must have length {basis.shape[0]}")
    msg = _binary(msg, InvalidParams, "message entries must be 0 or 1")
    # uint8 sums wrap modulo 256, an even number, so their parity is exact.
    return (msg @ basis) & 1


def simulate_repair(
    h: BitMatrix,
    family: RecoveringFamily,
    codeword: Sequence[int],
    erased: int,
) -> RepairTrace:
    """Repair the erased coordinate once per recovering set.

    Raises InvalidCodeword when the input fails the parity checks, and
    InvalidParams when the family does not match the matrix. After the
    checks, one gather reads every helper bit of the coordinate's sets.
    """
    if family.n != h.cols:
        raise InvalidParams("family length does not match matrix columns")
    erased = _integer(erased, "erased")
    if not 1 <= erased <= h.cols:
        raise InvalidParams(f"erased coordinate {erased} out of range 1..{h.cols}")
    cw = np.asarray(codeword)
    if cw.ndim != 1 or cw.shape[0] != h.cols:
        raise InvalidParams(f"codeword must have length {h.cols}")
    cw = _binary(cw, InvalidCodeword, "codeword entries must be 0 or 1")
    if _fails_checks(h, cw):
        raise InvalidCodeword("vector fails the parity checks")
    table = _realizing_helpers(h, family)
    if table.first_bad is not None:
        raise InvalidParams(
            f"coordinate {table.first_bad}: a recovering set admits no parity word"
        )
    cuts = table.cuts[erased - 1]
    lo = cuts[0]
    columns = table.columns[lo : cuts[-1]]
    read = cw[columns]
    pairs = table.pairs[2 * columns + read].tolist()
    # parity[m] is the XOR of the first m helper bits read.
    parity = [0, *np.bitwise_xor.accumulate(read).tolist()]
    spans = [(a - lo, b - lo) for a, b in zip(cuts, cuts[1:])]
    return RepairTrace(
        erased=erased,
        recoveries=tuple([tuple(pairs[a:b]) for a, b in spans]),
        recovered_values=tuple([parity[a] ^ parity[b] for a, b in spans]),
        helper_load=table.loads[erased - 1].copy(),
    )
