"""Column-duplication construction trading recovering-set overlap for rate.

Duplicating every column of a disjoint-recovering-set parity-check matrix
x + 1 times keeps the number of checks (and so the rank) fixed while growing
the length, hence the rate; the price is that the t recovering sets of a
coordinate now pairwise intersect in its x sibling copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from fractions import Fraction

import numpy as np

from .errors import InvalidParams, _integer
from .gf2 import BitMatrix, kronecker
from .params import CodeParams
from .verifier import RecoveringFamily
from .wzl import WzlCode, build_wzl, complement_columns

__all__ = ["XlrcCode", "map_params", "build_xlrc", "canonical_family"]


@dataclass(frozen=True)
class XlrcCode:
    """A seed code together with its column-duplicated parity-check matrix."""

    base: WzlCode
    x: int
    H: BitMatrix
    params: CodeParams


def map_params(r_tilde: int, t_tilde: int, x: int) -> CodeParams:
    """Parameters after duplicating the (r_tilde, t_tilde) seed x + 1 times:
    n = (x+1) C(m, t), k = n - C(m-1, t-1), r = (r_tilde+1)(x+1) - 1,
    availability t_tilde, overlap x. The rate equals
    (r + (t-1)x) / (r + t + (t-1)x).

    The minimum distance is d = 2 if x >= 1, else t + 1, where m = r_tilde +
    t_tilde and t = t_tilde:

    - x >= 1: a column and one of its sibling copies form a weight-2
      codeword, and no column of H is zero (each has weight t >= 1).
    - x = 0, d <= t + 1: take a (t+1)-subset T of {1..m} (m >= t + 1). The
      t + 1 columns labelled by the t-subsets of T sum to zero, since each
      (t-1)-subset of T lies in exactly two of them and no other row meets
      them.
    - x = 0, d >= t + 1: a codeword with a 1 at i has another 1 in each of
      the t pairwise disjoint recovering sets of i.
    """
    if _integer(r_tilde, "r_tilde") < 1 or _integer(t_tilde, "t_tilde") < 1:
        raise InvalidParams("seed locality and availability must be positive")
    if _integer(x, "x") < 0:
        raise InvalidParams("overlap allowance must be nonnegative")
    m = r_tilde + t_tilde
    n = (x + 1) * comb(m, t_tilde)
    k = n - comb(m - 1, t_tilde - 1)
    r = (r_tilde + 1) * (x + 1) - 1
    d = 2 if x else t_tilde + 1
    return CodeParams(n=n, k=k, r=r, t=t_tilde, x=x, rate=Fraction(k, n), d=d)


def build_xlrc(
    r_tilde: int, t_tilde: int, x: int, convention: str = "incidence"
) -> XlrcCode:
    """Build the duplicated code from the (r_tilde, t_tilde) seed.

    ``convention`` selects the seed's column labeling ("incidence" or
    "complement"); the parameters, minimum distance included, come from
    ``map_params``.
    """
    params = map_params(r_tilde, t_tilde, x)
    seed = build_wzl(r_tilde + t_tilde, t_tilde)
    if convention == "complement":
        seed = complement_columns(seed)
    elif convention != "incidence":
        raise InvalidParams(f"unknown convention {convention!r}")
    h = kronecker(seed.H, BitMatrix.ones(1, x + 1))
    return XlrcCode(base=seed, x=x, H=h, params=params)


def canonical_family(code: XlrcCode) -> RecoveringFamily:
    """The recovering-set family read off the parity-check matrix: for each
    coordinate, the supports of the rows covering it, minus the coordinate,
    ordered by row index. Sets have size r and pairwise intersect exactly in
    the x sibling copies of the coordinate."""
    h = code.H.array
    supports = [
        frozenset(int(c) + 1 for c in np.nonzero(h[row])[0]) for row in range(h.shape[0])
    ]
    per_coordinate = []
    for col in range(h.shape[1]):
        coord = col + 1
        rows = np.nonzero(h[:, col])[0]
        per_coordinate.append(tuple(supports[int(row)] - {coord} for row in rows))
    return RecoveringFamily(n=h.shape[1], sets_by_coordinate=tuple(per_coordinate))
