"""Erasure repair over recovering sets, with helper-load accounting.

Each recovering set is realized by a parity word of the matrix through the
erased coordinate; the lost symbol is the XOR of the helpers the word reads.
Everything that does not depend on the codeword is cached. The matrix's
record in ``gf2``, its one elimination, gives the rows of rref(H) as
Python ints, which fill a message's pivot columns and make the parity test.
Per (matrix, family), the verifier's realizing-word table, built by the
first repair or ``verify_family`` with one call of the parity-word kernel
``gf2._parity_words``, holds each set's helpers as one flat column array
with offsets, each coordinate's helper loads as a read-only mapping, the
shared (helper, bit) pairs and the sets that admit no parity word. So an
encode packs its word once and takes one parity per reduced row. The last
(matrix, family, codeword) is kept repaired at every coordinate. A miss
checks and sweeps the whole codeword, about 80-130 us at n = 224 and 1 ms at
n = 1,320; a hit slices its coordinate's range and hands the trace its
coordinate's shared load mapping, about 5 us at n = 224, so a trace
allocates only itself. Codeword-major callers pay one miss per codeword,
coordinate-major ones one per call.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InvalidCodeword, InvalidParams, _integer
from .gf2 import BitMatrix, _as_matrix, _binary, _int_row, _record
from .verifier import RecoveringFamily, _realizing_helpers

__all__ = ["RepairTrace", "systematic_encode", "simulate_repair"]
_NOT_BITS = "codeword entries must be 0 or 1"


class RepairTrace(NamedTuple):
    """One erased coordinate repaired independently by each of its sets.

    ``recoveries[j]`` lists the (helper, value read) pairs used by set j + 1,
    helpers ascending; ``recovered_values[j]`` is their XOR. ``helper_load``
    counts how many sets read each helper, keys ascending. It is a read-only
    mapping that every trace of the coordinate shares with the realizing-word
    table, since the loads depend only on (H, family): assigning into it
    raises TypeError, and ``dict(trace.helper_load)`` gives a private copy.
    A trace is a named tuple: it unpacks as (erased, recoveries,
    recovered_values, helper_load), compares by value, and is unhashable,
    because its mapping is.
    """

    erased: int
    recoveries: tuple[tuple[tuple[int, int], ...], ...]
    recovered_values: tuple[int, ...]
    helper_load: Mapping[int, int]


def _fails_checks(h: BitMatrix, cw: np.ndarray) -> bool:
    """Whether the 0/1 uint8 vector ``cw`` fails a parity check of H: it
    does iff it meets some row of rref(H) in an odd number of ones."""
    word = _int_row(cw)
    return any((row & word).bit_count() & 1 for row in _record(h).rows)


@lru_cache(maxsize=1)
def _swept(h: BitMatrix, family: RecoveringFamily, word: bytes) -> tuple:
    """Repair every coordinate of the uint8 vector with bytes ``word`` after
    simulate_repair's checks of it (its bits, H's checks, the family's parity
    words). Returns the realizing-word table, each helper read's index into
    its pairs, and each set's recovered bit, one row of its spans per coordinate."""
    cw = _binary(np.frombuffer(word, np.uint8), InvalidCodeword, _NOT_BITS)
    if _fails_checks(h, cw):
        raise InvalidCodeword("vector fails the parity checks")
    table = _realizing_helpers(h, family)
    if table.unrealized:
        raise InvalidParams(
            f"coordinate {table.unrealized[0][0]}: a recovering set admits no parity word"
        )
    # parity[m] is the XOR of the first m helper bits read, so the set read
    # from m = a to b recovers parity[a] ^ parity[b], which is 0 when a = b.
    parity = np.zeros(table.columns.size + 1, dtype=bool)
    np.logical_xor.accumulate(cw.view(bool)[table.columns], out=parity[1:])
    ends = parity[table.spans]
    index = (np.arange(0, 2 * h.cols, 2) + cw)[table.columns]
    return table, index, (ends[:, :-1] ^ ends[:, 1:]).tobytes()


def systematic_encode(h: BitMatrix | np.ndarray, message: Sequence[int]) -> np.ndarray:
    """Embed a length-(cols - rank) message at the pivot-free columns of the
    reduced parity-check matrix and fill the pivot columns to satisfy every
    check: pivot row ri of rref(H) gives its pivot bit as the sum of the
    message bits at the free columns where the row has a 1. That is the
    message times the systematic nullspace basis. rref(H)'s rows are kept as
    Python ints, so an encode packs the message, at the free columns, into
    one int and takes pivot bit k as the parity of row k AND it. The zero
    message encodes to the zero codeword."""
    h = _as_matrix(h)
    rows, pivots = _record(h)
    free = np.delete(np.arange(h.cols), pivots)
    msg = np.asarray(message)
    if msg.ndim != 1 or msg.shape[0] != free.size:
        raise InvalidParams(f"message must have length {free.size}")
    msg = _binary(msg, InvalidParams, "message entries must be 0 or 1")
    word = np.zeros(h.cols, dtype=np.uint8)
    word[free] = msg
    bits = _int_row(word)
    word[list(pivots)] = [(row & bits).bit_count() & 1 for row in rows]
    return word


def simulate_repair(
    h: BitMatrix | np.ndarray,
    family: RecoveringFamily,
    codeword: Sequence[int],
    erased: int,
) -> RepairTrace:
    """Repair the erased coordinate once per recovering set.

    Raises InvalidCodeword when the input fails the parity checks, and
    InvalidParams when the family does not match the matrix. After the input
    checks, a repair of the kept codeword slices its coordinate's range of the
    kept sweep; any other codeword is swept whole first. A plain-array H is
    wrapped anew on each call (a copy, a bit check and a hash), about doubling
    the cost at n = 224: repeat callers pass a BitMatrix.
    """
    h = _as_matrix(h)
    n = h.cols
    if family.n != n:
        raise InvalidParams("family length does not match matrix columns")
    erased = _integer(erased, "erased")
    if not 1 <= erased <= n:
        raise InvalidParams(f"erased coordinate {erased} out of range 1..{n}")
    cw = np.asarray(codeword)
    if cw.ndim != 1 or cw.shape[0] != n:
        raise InvalidParams(f"codeword must have length {n}")
    if cw.dtype != np.uint8:
        cw = _binary(cw, InvalidCodeword, _NOT_BITS)
    table, index, recovered = _swept(h, family, cw.tobytes())
    cuts = table.cuts[erased - 1]
    lo = cuts[0]
    start = (erased - 1) * (table.spans.shape[1] - 1)
    pairs = table.pairs[index[lo : cuts[-1]]].tolist()
    return RepairTrace(
        erased,
        tuple([tuple(pairs[a - lo : b - lo]) for a, b in zip(cuts, cuts[1:])]),
        tuple(recovered[start : start + len(cuts) - 1]),
        table.loads[erased - 1],
    )
