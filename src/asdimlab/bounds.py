"""Dimension values and two-sided bounds.

Asymptotic-dimension facts come in three strengths: an exact non-negative
integer, "finite but no number known" (the conclusion of qualitative
finiteness theorems), and "unknown".  ``ExtendedDim`` models that scale;
``DimBound`` pairs an integer lower bound with an extended upper bound and
refuses to exist when the two contradict each other.

Both are hash-consed (Filliâtre & Conchon, "Type-safe modular hash-consing",
2006): each distinct value is validated and built once, with its hash and text,
then shared through a weak-value table.
"""

from __future__ import annotations

import functools
import weakref

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


class _Shared:
    """An immutable value shared through its class's weak-value ``_table``.
    ``_key`` is its field tuple; equality, hashing, copying and pickling go
    through it, so a duplicate built by a racing thread still compares equal."""

    __slots__ = ("_key", "_hash", "_str", "__weakref__")

    @classmethod
    def _share(cls, key: tuple, text: str):
        self = object.__new__(cls)
        for name, v in zip(cls.__slots__ + ("_key", "_hash", "_str"), key + (key, hash(key), text)):
            object.__setattr__(self, name, v)
        return cls._table.setdefault(key, self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self._str

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._key))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._key


@functools.total_ordering
class ExtendedDim(_Shared):
    """A dimension value: Number(n), FiniteUnknown, or Unknown.  Both fields
    are exact ints (bool and float raise ValueError), so equal values print alike.

    Ordering is Number(0) < Number(1) < ... < FiniteUnknown < Unknown,
    which the (rank, value) field order realizes directly.
    """

    __slots__ = ("rank", "value")
    _table: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def __new__(cls, rank: int, value: int = 0) -> "ExtendedDim":
        if type(rank) is not int or rank not in (_NUMBER, _FINITE_UNKNOWN, _UNKNOWN):
            raise ValueError(f"bad ExtendedDim rank {rank!r}")
        if type(value) is not int:
            raise ValueError(f"ExtendedDim value must be an int, got {value!r}")
        key = (rank, value)
        self = cls._table.get(key)
        if self is not None:
            return self
        if rank == _NUMBER:
            if value < 0:
                raise ValueError(f"negative dimension {value}")
            return cls._share(key, str(value))
        if value != 0:
            raise ValueError("non-numeric ExtendedDim carries no value")
        return cls._share(key, "fin" if rank == _FINITE_UNKNOWN else "?")

    def __lt__(self, other):
        return self._key < other._key if type(other) is ExtendedDim else NotImplemented

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


class DimBound(_Shared):
    """Two-sided asymptotic-dimension bound: lower ≤ asdim ≤ upper.

    The lower bound is always an exact int; the upper lives on the
    extended scale.  Construction enforces lower ≤ upper whenever the
    upper is numeric, raising InconsistentBoundError otherwise.
    """

    __slots__ = ("lower", "upper")
    _table: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def __new__(cls, lower: int, upper: ExtendedDim) -> "DimBound":
        if type(lower) is not int:
            raise ValueError(f"DimBound lower must be an int, got {lower!r}")
        key = (lower, upper)
        self = cls._table.get(key)
        if self is not None:
            return self
        if lower < 0:
            raise ValueError(f"negative lower bound {lower}")
        if upper.is_number and lower > upper.value:
            raise InconsistentBoundError(f"lower bound {lower} exceeds upper bound {upper}")
        return cls._share(key, f"{lower}..{upper}")

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
