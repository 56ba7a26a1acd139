"""Erasure repair over recovering sets, with helper-load accounting.

Each recovering set is realized by a parity word of the matrix through the
erased coordinate; the lost symbol is the XOR of the helpers the word reads.
Everything that does not depend on the codeword (each set's helpers and each
coordinate's helper loads) comes from the verifier's realizing-word table,
built once per (matrix, family) and shared with ``verify_family``. The first
call on a pair builds it with one call of the batched parity-word kernel
``gf2._parity_words``, which finds the words of every set together. After
that, a repair costs its input checks (the codeword's length, bits and
parity checks) plus a gather of the helper bits: no parity word is found and
nothing is eliminated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidCodeword, InvalidParams, _integer
from .gf2 import BitMatrix, _binary, nullspace_basis
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


def systematic_encode(h: BitMatrix, message: Sequence[int]) -> np.ndarray:
    """Embed a length-(cols - rank) message at the pivot-free columns of the
    reduced parity-check matrix and fill the pivot columns to satisfy every
    check: the message times the systematic nullspace basis. The zero message
    encodes to the zero codeword."""
    basis = nullspace_basis(h).array
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
    InvalidParams when the family does not match the matrix.
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
    if np.any((h.array @ cw) & 1):
        raise InvalidCodeword("vector fails the parity checks")
    table = _realizing_helpers(h, family)
    if table.first_bad is not None:
        raise InvalidParams(
            f"coordinate {table.first_bad}: a recovering set admits no parity word"
        )
    # Index 0 pads the 1-based helper ids.
    bits = (0, *cw.tolist())
    pairs = table.pairs
    recoveries = []
    values = []
    for ids in table.helpers[erased - 1]:
        read = [bits[j] for j in ids]
        recoveries.append(tuple([pairs[j][bit] for j, bit in zip(ids, read)]))
        values.append(sum(read) & 1)
    load_ids, load_counts = table.loads[erased - 1]
    return RepairTrace(
        erased=erased,
        recoveries=tuple(recoveries),
        recovered_values=tuple(values),
        helper_load=dict(zip(load_ids, load_counts)),
    )
