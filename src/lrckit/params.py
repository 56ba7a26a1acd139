"""Scalar parameter bundle shared by the code constructions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParams

__all__ = ["CodeParams"]


@dataclass(frozen=True)
class CodeParams:
    """Length, dimension, locality, availability, overlap allowance, rate
    and minimum distance.

    ``rate`` is exact and must equal k/n; ``d`` is the true minimum distance.
    ``x`` bounds the pairwise intersection of the t recovering sets of any
    coordinate.
    """

    n: int
    k: int
    r: int
    t: int
    x: int
    rate: Fraction
    d: int

    def __post_init__(self) -> None:
        if self.n < 1 or not 0 <= self.k <= self.n:
            raise InvalidParams(f"invalid length/dimension ({self.n}, {self.k})")
        if self.r < 1 or self.t < 1:
            raise InvalidParams("locality and availability must be positive")
        if not 0 <= self.x <= self.r:
            raise InvalidParams("overlap allowance must lie in [0, r]")
        if self.rate != Fraction(self.k, self.n):
            raise InvalidParams("rate must equal k/n exactly")
        if self.d < 1:
            raise InvalidParams("minimum distance must be positive")
