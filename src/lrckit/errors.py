"""Exception types shared across the package, and its integer check."""

from __future__ import annotations

import operator

__all__ = [
    "LrckitError",
    "InvalidParams",
    "DimensionTooLarge",
    "InvalidCodeword",
    "ParseError",
    "FamilyNotFound",
]


class LrckitError(Exception):
    """Base class for every error raised by this package."""


class InvalidParams(LrckitError, ValueError):
    """Parameters outside the valid range of a construction, bound, or check."""


def _integer(value, name: str) -> int:
    """value as an int; ints and numpy integers pass ``operator.index``,
    anything else (a float, a string, None) raises InvalidParams."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParams(f"{name} must be an integer") from None


class DimensionTooLarge(LrckitError):
    """An exhaustive enumeration would exceed its configured cap."""


class InvalidCodeword(LrckitError):
    """A vector does not satisfy the parity checks of the claimed code."""


class ParseError(LrckitError, ValueError):
    """A matrix file is malformed; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class FamilyNotFound(LrckitError):
    """The recovering-set search failed for some coordinate.

    ``exhaustive`` is True when the search space covered every dual codeword,
    making the failure a true negative rather than a search limitation.
    """

    def __init__(self, coordinate: int, exhaustive: bool) -> None:
        super().__init__(
            f"no recovering-set family at coordinate {coordinate} "
            f"(exhaustive search: {'yes' if exhaustive else 'no'})"
        )
        self.coordinate = coordinate
        self.exhaustive = exhaustive
