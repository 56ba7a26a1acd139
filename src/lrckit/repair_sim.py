"""Erasure repair over recovering sets, with helper-load accounting.

Each recovering set is realized by a parity word of the matrix through the
erased coordinate; the lost symbol is the XOR of the helpers the word reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import InvalidCodeword, InvalidParams
from .gf2 import BitMatrix, rank, recovery_parity_word, rref
from .verifier import RecoveringFamily

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
    check. The zero message encodes to the zero codeword."""
    reduced, pivots = rref(h)
    pivot_set = set(pivots)
    free = [c for c in range(h.cols) if c not in pivot_set]
    msg = np.asarray(message, dtype=np.uint8)
    if msg.ndim != 1 or msg.shape[0] != len(free):
        raise InvalidParams(f"message must have length {len(free)}")
    if msg.size and msg.max() > 1:
        raise InvalidParams("message entries must be 0 or 1")
    word = np.zeros(h.cols, dtype=np.uint8)
    word[free] = msg
    for ri, p in enumerate(pivots):
        # Pivot row: c_p + sum over free columns f of R[ri, f] c_f = 0.
        word[p] = int(reduced.array[ri, free] @ msg) & 1
    return word


@lru_cache(maxsize=64)
def _realizing_masks(
    h: BitMatrix, family: RecoveringFamily
) -> tuple[tuple[int, ...], ...]:
    """Per coordinate, per set, a parity word through the coordinate with
    support inside set + {coordinate}, as a column bitmask."""
    per_coordinate = []
    for i, sets in enumerate(family.sets_by_coordinate, start=1):
        words = []
        for s in sets:
            word = recovery_parity_word(h, i - 1, [e - 1 for e in s])
            if word is None:
                raise InvalidParams(
                    f"coordinate {i}: a recovering set admits no parity word"
                )
            mask = 0
            for j in np.nonzero(word)[0]:
                mask |= 1 << int(j)
            words.append(mask)
        per_coordinate.append(tuple(words))
    return tuple(per_coordinate)


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
    if not 1 <= erased <= h.cols:
        raise InvalidParams(f"erased coordinate {erased} out of range 1..{h.cols}")
    cw = np.asarray(codeword, dtype=np.uint8)
    if cw.ndim != 1 or cw.shape[0] != h.cols:
        raise InvalidParams(f"codeword must have length {h.cols}")
    if cw.size and cw.max() > 1:
        raise InvalidCodeword("codeword entries must be 0 or 1")
    if np.any((h.array @ cw) & 1):
        raise InvalidCodeword("vector fails the parity checks")
    masks = _realizing_masks(h, family)[erased - 1]
    erased_bit = 1 << (erased - 1)
    recoveries = []
    values = []
    load: dict[int, int] = {}
    for mask in masks:
        helpers_mask = mask & ~erased_bit
        reads = []
        value = 0
        m = helpers_mask
        while m:
            j = (m & -m).bit_length() - 1
            bit_value = int(cw[j])
            reads.append((j + 1, bit_value))
            value ^= bit_value
            load[j + 1] = load.get(j + 1, 0) + 1
            m &= m - 1
        recoveries.append(tuple(reads))
        values.append(value)
    return RepairTrace(
        erased=erased,
        recoveries=tuple(recoveries),
        recovered_values=tuple(values),
        helper_load=dict(sorted(load.items())),
    )
