"""Dimension values and two-sided bounds, and the base of every record.

Asymptotic-dimension facts come in three strengths: an exact non-negative
integer, "finite but no number known" (the conclusion of qualitative
finiteness theorems), and "unknown".  ``ExtendedDim`` models that scale;
``DimBound`` pairs an integer lower bound with an extended upper bound and
refuses to exist when the two contradict each other.

Every immutable value of the package is a ``record``, whose methods
``_Record`` supplies; ``dataclasses`` is imported only for a record's
``dataclasses`` view.  These two and the group expressions are hash-consed
(Filliâtre & Conchon, "Type-safe modular hash-consing", 2006): each distinct
value is built once, and shared through a weak table keyed by its fields.
"""

from __future__ import annotations

import functools
import weakref
from collections import namedtuple

from . import Refusal

_NUMBER = 0
_FINITE_UNKNOWN = 1
_UNKNOWN = 2

_MISSING = object()  # a record field's default, when it has none


def natural_int(token: str) -> int:
    """int(token) for the numerals str() writes for integers n >= 0 alone: a
    sign, space, underscore, leading zero or non-ASCII digit raises
    ValueError, worded as int() words it."""
    if token.isascii() and token.isdigit() and (token[0] != "0" or len(token) == 1):
        return int(token)
    raise ValueError(f"invalid literal for int() with base 10: {token!r}")


class InconsistentBoundError(Refusal):
    """A derived lower bound exceeds a numeric upper bound.

    Bounds are never silently clamped; this error surfaces catalog or
    modeling mistakes at the point where they happen.
    """

    exit_code = 3
    heading = "inconsistent bounds: "


class _DataclassView:
    """``__dataclass_fields__`` or ``__dataclass_params__`` of a ``record``
    class, for ``dataclasses.fields``, ``replace``, ``is_dataclass`` and
    ``pprint``: the first read runs a plain class with the same fields through
    ``dataclasses.dataclass`` and keeps both its attributes on the class."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, cls: type):
        specs = vars(cls).get("_specs")
        if specs is None:
            raise AttributeError(f"{cls.__name__} is not declared with record: no {self.name}")
        import dataclasses
        body = {name: dataclasses.field(
                    default=dataclasses.MISSING if f.default is _MISSING else f.default,
                    init=f.init, repr=f.repr, compare=f.compare)
                for name, f in specs.items()}
        shadow = dataclasses.dataclass(init=False, repr=False, eq=False)(type(cls.__name__, (), {
            **body, "__module__": cls.__module__, "__qualname__": cls.__qualname__,
            "__annotations__": cls.__annotations__}))
        cls.__dataclass_fields__ = shadow.__dataclass_fields__
        cls.__dataclass_params__ = shadow.__dataclass_params__
        return vars(cls)[self.name]


class _Record:
    """An immutable value whose class declares its fields through ``record``.

    Construction, equality, hashing, ``repr``, copying and pickling behave as
    a frozen dataclass's, from what ``record`` sets on the class: ``_setters``
    write the init fields' slots, in ``__match_args__`` order; ``_defaults``
    maps them to their defaults; ``_compared`` and ``_shown`` name the fields
    ``==`` compares and ``repr`` shows; ``_specs`` holds every ``field``.

    ``_checked`` may refuse the init fields' values, one tuple, first; an
    interned class returns the live value filed under them in its ``_table``,
    or files a new one, which keeps them as its ``_key`` and their hash as its
    ``_hash``.  ``__post_init__`` may refuse a new value or set its other slots.
    Equal interned values are one object, but for a racing thread's duplicate.
    """

    __slots__ = ()
    _interned = False
    _checked = None
    __dataclass_fields__ = _DataclassView()
    __dataclass_params__ = _DataclassView()

    def __new__(cls, *values, **kwargs):
        if kwargs or len(values) != len(cls._setters):
            values = cls._bind(values, kwargs)
        if cls._checked is not None:
            values = cls._checked(values)
        table = cls._table
        ref = None if table is None else table.get(values)
        if ref is not None and (self := ref()) is not None:
            return self
        self = object.__new__(cls)
        i = 0  # an index, not zip: this runs for every record made, and zip costs more
        for set_field in cls._setters:
            set_field(self, values[i])
            i += 1
        if table is not None:
            object.__setattr__(self, "_key", values)
            object.__setattr__(self, "_hash", hash(values))
        if cls._post_init:
            self.__post_init__()
        if table is None:
            return self
        # the callback takes the entry out of the table once the value has died
        ref = weakref.ref(self, lambda dead, key=values: table.get(key) is dead and table.pop(key))
        filed = table.setdefault(values, ref)
        if filed is not ref and (other := filed()) is not None:
            return other  # a duplicate that a racing thread filed first
        return self

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The init fields' values, in order, from keyword and left-out arguments."""
        names, defaults = cls.__match_args__, cls._defaults
        rest = names[len(args):]
        if len(args) > len(names) or not kwargs.keys() <= {*rest} <= kwargs.keys() | defaults.keys():
            raise TypeError(f"{cls.__name__}({', '.join(names)}) called with"
                            f" {len(args)} positional arguments and the keywords {sorted(kwargs)}")
        return (*args, *[kwargs[n] if n in kwargs else defaults[n] for n in rest])

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self is other:
            return True
        return (self._table is None or self._hash == other._hash) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    # an interned value stores both in slots, which hide these
    _key = property(lambda self: tuple([getattr(self, name) for name in self._compared]))
    _hash = property(lambda self: hash(self._key))

    def __repr__(self) -> str:
        """The dataclass text, written from an explicit stack at any depth."""
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            if isinstance(item, _Record):
                out.append(type(item).__qualname__ + "(")
                stack.append(")")
                parts = [(name + "=", getattr(item, name)) for name in item._shown]
            else:
                out.append("(")
                stack.append(",)" if len(item) == 1 else ")")
                parts = [("", v) for v in item]
            for i, (label, v) in reversed(list(enumerate(parts))):
                stack.append(v if isinstance(v, _Record) or type(v) is tuple else repr(v))
                stack.append(", " + label if i else label)
        return "".join(out)

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__match_args__])


class field(namedtuple("field", "default init repr compare", defaults=(_MISSING, True, True, True))):
    """A record field's default (``_MISSING`` if it has none), and whether
    ``__init__`` takes it, ``repr`` shows it and ``==`` and ``hash`` compare
    it, as ``dataclasses.field`` takes them."""

    __slots__ = ()


def record(cls: type) -> type:
    """Declare the fields of ``cls``, a ``_Record``, in the order they are
    annotated: rebuild the class with a slot for each, and no class-level
    default, and set what the ``_Record`` methods read.  A field's default is
    a ``field`` or a plain value, not a factory.  The class is rebuilt, so its
    methods must not call ``super()`` without arguments."""
    body = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    specs = {}
    for name in body.get("__annotations__", ()):
        spec = body.pop(name, _MISSING)
        specs[name] = spec if type(spec) is field else field(default=spec)
    init = tuple([name for name, f in specs.items() if f.init])
    cls = type(cls.__name__, cls.__bases__, {
        **body,
        "__qualname__": cls.__qualname__,
        "__slots__": (*specs, *(("_key", "_hash", "__weakref__") if cls._interned else ())),
        "__match_args__": init,
        "_table": {} if cls._interned else None,
        "_specs": specs,
        "_defaults": {name: default for name in init
                      if (default := specs[name].default) is not _MISSING},
        "_post_init": hasattr(cls, "__post_init__"),
        "_compared": tuple([name for name, f in specs.items() if f.compare]),
        "_shown": tuple([name for name, f in specs.items() if f.repr]),
    })
    cls._setters = tuple([getattr(cls, name).__set__ for name in init])
    return cls


@functools.total_ordering
@record
class ExtendedDim(_Record):
    """A dimension value: Number(n), FiniteUnknown, or Unknown.  Both fields
    are exact ints (bool and float raise ValueError), so equal values print alike.

    Ordering is Number(0) < Number(1) < ... < FiniteUnknown < Unknown,
    which the (rank, value) field order realizes directly.
    """

    rank: int
    value: int = 0
    _interned = True

    @staticmethod
    def _checked(values: tuple) -> tuple:
        rank, value = values
        if type(rank) is not int or rank not in (_NUMBER, _FINITE_UNKNOWN, _UNKNOWN):
            raise ValueError(f"bad ExtendedDim rank {rank!r}")
        if type(value) is not int:
            raise ValueError(f"ExtendedDim value must be an int, got {value!r}")
        if rank == _NUMBER and value < 0:
            raise ValueError(f"negative dimension {value}")
        if rank != _NUMBER and value != 0:
            raise ValueError("non-numeric ExtendedDim carries no value")
        return values

    def __str__(self) -> str:
        return str(self.value) if self.is_number else "fin" if self.is_finite else "?"

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


@record
class DimBound(_Record):
    """Two-sided asymptotic-dimension bound: lower ≤ asdim ≤ upper.

    The lower bound is always an exact int; the upper lives on the
    extended scale.  Construction enforces lower ≤ upper whenever the
    upper is numeric, raising InconsistentBoundError otherwise.
    """

    lower: int
    upper: ExtendedDim
    # its text, written once when the bound is made
    _str: str = field(init=False, repr=False, compare=False)
    _interned = True

    @staticmethod
    def _checked(values: tuple) -> tuple:
        if type(values[0]) is not int:
            raise ValueError(f"DimBound lower must be an int, got {values[0]!r}")
        return values

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise ValueError(f"negative lower bound {self.lower}")
        if self.upper.is_number and self.lower > self.upper.value:
            raise InconsistentBoundError(f"lower bound {self.lower} exceeds upper bound {self.upper}")
        object.__setattr__(self, "_str", f"{self.lower}..{self.upper}")

    def __str__(self) -> str:
        return self._str

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
