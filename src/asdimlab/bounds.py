"""Dimension values and two-sided bounds.

Asymptotic-dimension facts come in three strengths: an exact non-negative
integer, "finite but no number known" (the conclusion of qualitative
finiteness theorems), and "unknown".  ``ExtendedDim`` models that scale;
``DimBound`` pairs an integer lower bound with an extended upper bound and
refuses to exist when the two contradict each other.
"""

from __future__ import annotations

from dataclasses import dataclass

_NUMBER = 0
_FINITE_UNKNOWN = 1
_UNKNOWN = 2


def natural_int(token: str) -> int:
    """int(token) for the numerals str() writes for integers n >= 0 alone: a
    sign, space, underscore, leading zero or non-ASCII digit raises
    ValueError, worded as int() words it."""
    if token.isascii() and token.isdigit() and (token[0] != "0" or len(token) == 1):
        return int(token)
    raise ValueError(f"invalid literal for int() with base 10: {token!r}")


class InconsistentBoundError(Exception):
    """A derived lower bound exceeds a numeric upper bound.

    Bounds are never silently clamped; this error surfaces catalog or
    modeling mistakes at the point where they happen.
    """


@dataclass(frozen=True, order=True)
class ExtendedDim:
    """A dimension value: Number(n), FiniteUnknown, or Unknown.

    Ordering is Number(0) < Number(1) < ... < FiniteUnknown < Unknown,
    which the (rank, value) field order realizes directly.
    """

    rank: int
    value: int = 0

    def __post_init__(self) -> None:
        if self.rank not in (_NUMBER, _FINITE_UNKNOWN, _UNKNOWN):
            raise ValueError(f"bad ExtendedDim rank {self.rank!r}")
        if self.rank == _NUMBER:
            if self.value < 0:
                raise ValueError(f"negative dimension {self.value}")
        elif self.value != 0:
            raise ValueError("non-numeric ExtendedDim carries no value")

    @property
    def is_number(self) -> bool:
        return self.rank == _NUMBER

    @property
    def is_finite(self) -> bool:
        """True for Number(n) and FiniteUnknown, False for Unknown."""
        return self.rank != _UNKNOWN

    def __add__(self, other: "ExtendedDim") -> "ExtendedDim":
        if _UNKNOWN in (self.rank, other.rank):
            return UNKNOWN
        if _FINITE_UNKNOWN in (self.rank, other.rank):
            return FINITE_UNKNOWN
        return finite(self.value + other.value)

    def __str__(self) -> str:
        if self.rank == _NUMBER:
            return str(self.value)
        return "fin" if self.rank == _FINITE_UNKNOWN else "?"

    @staticmethod
    def parse(token: str) -> "ExtendedDim":
        if token == "fin":
            return FINITE_UNKNOWN
        if token == "?":
            return UNKNOWN
        if token.isdigit():
            return finite(natural_int(token))
        raise ValueError(f"bad dimension token {token!r}")


FINITE_UNKNOWN = ExtendedDim(_FINITE_UNKNOWN)
UNKNOWN = ExtendedDim(_UNKNOWN)


def finite(n: int) -> ExtendedDim:
    """The exact dimension value n."""
    return ExtendedDim(_NUMBER, n)


@dataclass(frozen=True)
class DimBound:
    """Two-sided asymptotic-dimension bound: lower ≤ asdim ≤ upper.

    The lower bound is always a plain integer; the upper lives on the
    extended scale.  Construction enforces lower ≤ upper whenever the
    upper is numeric, raising InconsistentBoundError otherwise.
    """

    lower: int
    upper: ExtendedDim

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise ValueError(f"negative lower bound {self.lower}")
        if self.upper.is_number and self.lower > self.upper.value:
            raise InconsistentBoundError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}"
            )

    @classmethod
    def exact(cls, n: int) -> "DimBound":
        return cls(n, finite(n))

    @classmethod
    def parse(cls, text: str) -> "DimBound":
        """Parse the canonical "lower..upper" form (upper: int, "fin" or "?")."""
        lo, sep, hi = text.partition("..")
        if not sep or not lo.isdigit():
            raise ValueError(f"bad bound {text!r}")
        return cls(natural_int(lo), ExtendedDim.parse(hi))

    def __str__(self) -> str:
        return f"{self.lower}..{self.upper}"
