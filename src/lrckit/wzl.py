"""Subset-incidence parity-check construction with disjoint recovering sets.

The parity-check matrix over ground set {1..m} has one row per (t-1)-subset,
one column per t-subset, and a 1 exactly where the row's subset is contained
in the column's. The resulting binary code has locality r = m - t,
availability t, and pairwise disjoint recovering sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .errors import InvalidParams, _integer
from .gf2 import BitMatrix

__all__ = [
    "Label",
    "WzlCode",
    "subset_labels",
    "build_wzl",
    "complement_columns",
    "check_recursion",
]

# A label is a strictly increasing tuple of elements of {1..m}. Tuples compare
# lexicographically, which is the column/row order used throughout.
Label = tuple[int, ...]


def subset_labels(m: int, size: int) -> tuple[Label, ...]:
    """All size-subsets of {1..m}, lexicographically ordered."""
    return tuple(combinations(range(1, m + 1), size))


@dataclass(frozen=True)
class WzlCode:
    """A labeled parity-check matrix from the subset-incidence construction.

    ``convention`` records the column labeling: "incidence" means column j is
    labeled by the t-subset F_j it tests, "complement" means columns carry
    (and are ordered by) the complements of those subsets.
    """

    m: int
    t: int
    H: BitMatrix
    row_labels: tuple[Label, ...]
    col_labels: tuple[Label, ...]
    convention: str = "incidence"


def build_wzl(m: int, t: int) -> WzlCode:
    """Incidence matrix of (t-1)-subsets inside t-subsets of {1..m}.

    Shape is C(m, t-1) x C(m, t); row weight m - t + 1, column weight t.
    For t = 1 the single row is labeled by the empty set, which is contained
    in every 1-subset, so the matrix is the 1 x m all-ones row; t = m gives
    its transpose, the m x 1 all-ones column.
    """
    m, t = _integer(m, "m"), _integer(t, "t")
    if not 1 <= t <= m:
        raise InvalidParams(f"need 1 <= t <= m, got t={t}, m={m}")
    row_labels = subset_labels(m, t - 1)
    col_labels = subset_labels(m, t)
    # A (t-1)-subset lies inside a t-subset iff they share t - 1 elements.
    shared = _indicator(row_labels, m) @ _indicator(col_labels, m).T
    h = (shared == t - 1).astype(np.uint8)
    return WzlCode(m=m, t=t, H=BitMatrix(h), row_labels=row_labels, col_labels=col_labels)


def _indicator(labels: tuple[Label, ...], m: int) -> np.ndarray:
    """0/1 matrix with one row per label and a 1 at each element's column."""
    elements = range(1, m + 1)
    return np.array([[e in lbl for e in elements] for lbl in labels], dtype=np.int64)


def complement_columns(code: WzlCode) -> WzlCode:
    """Relabel every column by its complement in {1..m} and re-sort columns
    lexicographically by the new labels. Applying it twice is the identity."""
    full = set(range(1, code.m + 1))
    new_labels = [tuple(sorted(full - set(lbl))) for lbl in code.col_labels]
    order = sorted(range(len(new_labels)), key=lambda j: new_labels[j])
    flipped = "complement" if code.convention == "incidence" else "incidence"
    return WzlCode(
        m=code.m,
        t=code.t,
        H=BitMatrix(code.H.array[:, order]),
        row_labels=code.row_labels,
        col_labels=tuple(new_labels[j] for j in order),
        convention=flipped,
    )


def check_recursion(m: int, t: int) -> bool:
    """Whether the matrix splits as [[H(m-1,t-1), 0], [I, H(m-1,t)]].

    The blocks follow from ordering labels containing element 1 first and
    stripping that element; plain lexicographic order already does both.
    Requires 2 <= t <= m - 1.
    """
    m, t = _integer(m, "m"), _integer(t, "t")
    if not 2 <= t <= m - 1:
        raise InvalidParams(f"recursion needs 2 <= t <= m-1, got t={t}, m={m}")
    whole = build_wzl(m, t).H.array
    top_left = build_wzl(m - 1, t - 1).H.array
    bottom_right = build_wzl(m - 1, t).H.array
    size = comb(m - 1, t - 1)
    top = np.hstack(
        [top_left, np.zeros((top_left.shape[0], bottom_right.shape[1]), dtype=np.uint8)]
    )
    bottom = np.hstack([np.eye(size, dtype=np.uint8), bottom_right])
    return np.array_equal(whole, np.vstack([top, bottom]))
