"""Dimension values and two-sided bounds.

Asymptotic-dimension facts come in three strengths: an exact non-negative
integer, "finite but no number known" (the conclusion of qualitative
finiteness theorems), and "unknown".  ``ExtendedDim`` models that scale;
``DimBound`` pairs an integer lower bound with an extended upper bound and
refuses to exist when the two contradict each other.

Both are hash-consed (Filliâtre & Conchon, "Type-safe modular hash-consing",
2006): each distinct value is validated and built once, with its hash and text,
then shared through a weak-value table.

The other immutable values of the package (group expressions, manifold
descriptions, catalog facts, rules and traces) are declared with ``record``,
which gives them slots and generates no methods: ``_Record`` supplies them
once for every such class.  Nothing here imports ``dataclasses``; a record
class builds its ``dataclasses`` view, and imports the module, when that view
is first asked for.
"""

from __future__ import annotations

import functools
import weakref
from collections import namedtuple
from operator import attrgetter

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
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

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


class _DataclassView:
    """``__dataclass_fields__`` or ``__dataclass_params__`` of a ``record``
    class, which ``dataclasses.fields``, ``replace``, ``is_dataclass`` and
    ``pprint`` read.  The first read imports ``dataclasses``, runs a plain
    class with the same fields through ``dataclasses.dataclass`` and keeps
    both of its attributes on the record class.  A class not declared with
    ``record`` has neither."""

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
    a frozen dataclass's, from what ``record`` sets on the class once:
    ``_setters`` writes each init field's slot, in ``__match_args__`` order;
    ``_defaults`` maps init fields to their defaults; ``_post_init`` says
    whether ``__init__`` ends with ``__post_init__()``, which sets any field
    declared with ``init=False``; ``_key`` gives the compared fields' values
    as one tuple; ``_shown`` names the fields ``repr`` shows; ``_specs`` maps
    every field to its ``field``, from which ``_DataclassView`` builds the
    class's ``dataclasses`` view on first use.
    """

    __slots__ = ()
    __setattr__ = _Shared.__setattr__
    __delattr__ = _Shared.__delattr__
    __dataclass_fields__ = _DataclassView()
    __dataclass_params__ = _DataclassView()

    def __init__(self, *args, **kwargs) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        i = 0  # an index, not zip: this runs for every record made, and zip costs more
        for set_field in setters:
            set_field(self, args[i])
            i += 1
        if self._post_init:
            self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """The init fields' values, in order, from keyword and left-out arguments."""
        names, defaults = self.__match_args__, self._defaults
        rest = names[len(args):]
        if len(args) > len(names) or not kwargs.keys() <= {*rest} <= kwargs.keys() | defaults.keys():
            raise TypeError(f"{type(self).__name__}({', '.join(names)}) called with"
                            f" {len(args)} positional arguments and the keywords {sorted(kwargs)}")
        return [*args, *[kwargs[n] if n in kwargs else defaults[n] for n in rest]]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._shown])
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple([getattr(self, name) for name in self.__match_args__])


_Field = namedtuple("_Field", "default init repr compare")


def field(*, default=_MISSING, init: bool = True, repr: bool = True,
          compare: bool = True) -> _Field:
    """A record field's default (``_MISSING`` if it has none), and whether
    ``__init__`` takes it, ``repr`` shows it and ``==`` and ``hash`` compare
    it, as ``dataclasses.field`` takes them."""
    return _Field(default, init, repr, compare)


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
        specs[name] = spec if type(spec) is _Field else field(default=spec)
    init = tuple([name for name, f in specs.items() if f.init])
    cls = type(cls.__name__, cls.__bases__, {
        **body,
        "__qualname__": cls.__qualname__,
        "__slots__": tuple(specs),
        "__match_args__": init,
        "_specs": specs,
        "_defaults": {name: default for name in init
                      if (default := specs[name].default) is not _MISSING},
        "_post_init": hasattr(cls, "__post_init__"),
        "_key": _values(tuple([name for name, f in specs.items() if f.compare])),
        "_shown": tuple([name for name, f in specs.items() if f.repr]),
    })
    cls._setters = tuple([getattr(cls, name).__set__ for name in init])
    return cls


def _values(names: tuple[str, ...]):
    """A function from a record to the tuple of these fields' values."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return staticmethod(lambda self: (get(self),))
    return staticmethod(lambda self: ())


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
