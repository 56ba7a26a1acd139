"""Exact rate bounds for codes with overlapping recovering sets.

All rate arithmetic is done in ``fractions.Fraction``; floats never enter a
bound value. Decimal renderings round half to even at four places.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import InvalidParams, _integer

__all__ = [
    "BoundReport",
    "RateComparisonRow",
    "TABLE1_PAIRS",
    "TABLE1_OVERLAPS",
    "TABLE2_PAIRS",
    "n_upper",
    "n_lower",
    "f_value",
    "rate_upper",
    "rate_product",
    "bound_report",
    "table1",
    "table2",
    "decimal4",
]

TABLE1_PAIRS = ((4, 2), (5, 2), (6, 2), (7, 2), (4, 3), (5, 3), (6, 3), (7, 3))
TABLE1_OVERLAPS = (0, 1, 2, 3)
TABLE2_PAIRS = ((3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (7, 3))


def _check_rjx(r: int, j: int, x: int) -> None:
    if _integer(r, "r") < 1 or _integer(j, "j") < 1:
        raise InvalidParams("locality and set count must be positive")
    if not 0 <= _integer(x, "x") <= r:
        raise InvalidParams("overlap allowance must lie in [0, r]")


def n_upper(r: int, j: int, x: int) -> int:
    """Largest possible union of j recovering sets of size r: attained by
    disjoint sets regardless of the allowed overlap."""
    _check_rjx(r, j, x)
    return j * r


def n_lower(r: int, j: int, x: int) -> int:
    """Smallest possible union of j size-r sets with pairwise intersections
    of size at most x. With s = min(j, floor(r/x) + 1) sets packed as tightly
    as possible (s = j when x = 0), the union is (2r - (s-1)x) s / 2."""
    _check_rjx(r, j, x)
    s = j if x == 0 else min(j, r // x + 1)
    twice = (2 * r - (s - 1) * x) * s
    assert twice % 2 == 0
    return twice // 2


def f_value(r: int, t: int, x: int) -> Fraction:
    """Inclusion-exclusion lower bound on the probability that, under a
    uniformly random order of the coordinates, some recovering set of a
    coordinate lies entirely below it: odd terms use the largest possible
    unions, even terms the smallest."""
    if _integer(t, "t") < 1:
        raise InvalidParams("availability must be positive")
    total = Fraction(0)
    for j in range(1, t + 1):
        if j % 2 == 1:
            total += Fraction(comb(t, j), n_upper(r, j, x) + 1)
        else:
            total -= Fraction(comb(t, j), n_lower(r, j, x) + 1)
    return total


def rate_upper(r: int, t: int, x: int) -> Fraction:
    """Rate upper bound 1 - f for every code whose coordinates each have t
    recovering sets of size at most r pairwise intersecting in at most x."""
    return 1 - f_value(r, t, x)


def rate_product(r: int, t: int) -> Fraction:
    """Classical disjoint-recovering-set rate bound: prod_i 1/(1 + 1/(i r)).
    Equals rate_upper(r, t, 0) identically."""
    if _integer(r, "r") < 1 or _integer(t, "t") < 1:
        raise InvalidParams("locality and availability must be positive")
    value = Fraction(1)
    for i in range(1, t + 1):
        value *= Fraction(i * r, i * r + 1)
    return value


@dataclass(frozen=True)
class BoundReport:
    """Union bounds per set count j = 1..t plus the rate bound, all exact."""

    r: int
    t: int
    x: int
    n_lower_by_j: tuple[int, ...]
    n_upper_by_j: tuple[int, ...]
    f: Fraction
    rate_upper: Fraction
    rate_product_x0: Fraction | None
    decimal4: str

    def __post_init__(self) -> None:
        if self.rate_upper != 1 - self.f:
            raise InvalidParams("rate bound must equal 1 - f")
        if any(lo > hi for lo, hi in zip(self.n_lower_by_j, self.n_upper_by_j)):
            raise InvalidParams("union lower bound exceeds upper bound")


def bound_report(r: int, t: int, x: int) -> BoundReport:
    f = f_value(r, t, x)
    return BoundReport(
        r=r,
        t=t,
        x=x,
        n_lower_by_j=tuple(n_lower(r, j, x) for j in range(1, t + 1)),
        n_upper_by_j=tuple(n_upper(r, j, x) for j in range(1, t + 1)),
        f=f,
        rate_upper=1 - f,
        rate_product_x0=rate_product(r, t) if x == 0 else None,
        decimal4=decimal4(1 - f),
    )


def table1() -> tuple[tuple[BoundReport, ...], ...]:
    """Rate upper bounds on the standard (r, t) grid, one row per pair,
    one report per overlap allowance 0..3."""
    return tuple(
        tuple(bound_report(r, t, x) for x in TABLE1_OVERLAPS) for r, t in TABLE1_PAIRS
    )


@dataclass(frozen=True)
class RateComparisonRow:
    """Achieved rates vs. bounds at overlap 0 and 1 for one (r, t) pair."""

    r: int
    t: int
    wzl_rate: Fraction
    upper_x0: Fraction
    construction_x1: Fraction
    upper_x1: Fraction


def table2() -> tuple[RateComparisonRow, ...]:
    """Disjoint-set construction rate and bound (x = 0) against the duplicated
    construction rate and bound (x = 1) on the standard odd-r grid."""
    from .xlrc import map_params

    rows = []
    for r, t in TABLE2_PAIRS:
        if (r + 1) % 2 != 0:
            raise InvalidParams("comparison rows need odd locality")
        seed_r = (r + 1) // 2 - 1
        rows.append(
            RateComparisonRow(
                r=r,
                t=t,
                wzl_rate=map_params(r, t, 0).rate,
                upper_x0=rate_upper(r, t, 0),
                construction_x1=map_params(seed_r, t, 1).rate,
                upper_x1=rate_upper(r, t, 1),
            )
        )
    return tuple(rows)


def decimal4(value: Fraction) -> str:
    """Exact four-decimal rendering, ties to even (never via float). A
    negative value is its magnitude, rounded the same way, after a "-"
    (f is negative on some cells with t >= 4 and x >= 1)."""
    scaled = round(abs(value) * 10000)
    sign = "-" if value < 0 else ""
    return f"{sign}{scaled // 10000}.{scaled % 10000:04d}"
