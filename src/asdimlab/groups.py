"""Group expressions.

A ``GroupExpr`` is a finite tree describing how a finitely generated group
is built: base groups (trivial, finite, free abelian, surface groups,
lattices in model geometries) combined by products, free products,
amalgams, HNN extensions, group extensions, subspace unions and proper
actions on universal covers, plus three "evidence" leaves that carry a
bound rather than structure (a proper action on a space of known
asymptotic dimension, hyperbolicity, relative hyperbolicity).

Each variant class holds its own canonical text form, rebuild step and
infiniteness.  The module provides the canonical text form used in proof
traces and fixtures (lossless round-trip via ``to_canonical`` and the
iterative reader ``parse_canonical``), structural normalization, and the
conservative three-valued infiniteness predicate.  All walk expressions with
an explicit stack, so nesting depth is limited by memory, not by the
interpreter's stack.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Container, Iterator, Sequence
from dataclasses import dataclass
from operator import methodcaller

from .bounds import DimBound, InconsistentBoundError
from .geometries import UnknownGeometryError, lookup_geometry

SURFACE_KINDS = ("spherical", "flat", "hyperbolic")

_NAME_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_~")


class InfinitenessStatus(enum.Enum):
    FINITE = "Finite"
    INFINITE = "Infinite"
    UNDETERMINED = "Undetermined"


class GroupExpr:
    """Base class for all expression variants. Variants are frozen dataclasses.

    The defaults here are a leaf's.  ``frame()`` gives the text around the
    children in the canonical form: ``head + ",".join(their forms) + tail``.
    """

    __slots__ = ()

    def children(self) -> tuple[GroupExpr, ...]:
        """Direct subexpressions, left to right; leaves have none."""
        return ()

    @classmethod
    def read(cls, sc: _Scanner) -> tuple:
        """A leaf's constructor arguments, read from the text after its name."""
        return ()

    def infiniteness(self, parts: list[InfinitenessStatus]) -> InfinitenessStatus:
        """What this node decides, given its children's statuses in order."""
        return InfinitenessStatus.UNDETERMINED

    def normal_parts(self) -> Sequence[GroupExpr]:
        """The subexpressions whose normal forms make up this node's."""
        return self.children()

    def normalized(self, kids: list[GroupExpr]) -> GroupExpr:
        """This node's normal form, given those of ``normal_parts()`` in order."""
        return self


class _Composite(GroupExpr):
    """A variant with children, written ``Name(child,...)``."""

    def frame(self) -> tuple[str, str]:
        return type(self).__name__ + "(", ")"

    @classmethod
    def rebuild(cls, kids: Sequence[GroupExpr]) -> GroupExpr:
        """A node of this variant with children ``kids``; ValueError if they do not fit."""
        arity = len(cls.__match_args__)
        if len(kids) != arity:
            raise ValueError(f"{cls.__name__} takes {arity} arguments, got {len(kids)}")
        return cls(*kids)

    def normalized(self, kids: list[GroupExpr]) -> GroupExpr:
        return self.rebuild(kids)


class _Parts(_Composite):
    """A composite whose first field is a nonempty tuple of parts, its children."""

    def __post_init__(self) -> None:
        name = self.__match_args__[0]
        object.__setattr__(self, name, tuple(getattr(self, name)))
        if not getattr(self, name):
            raise ValueError(f"{type(self).__name__}.{name} must be nonempty")

    def children(self) -> tuple[GroupExpr, ...]:
        return getattr(self, self.__match_args__[0])

    @classmethod
    def rebuild(cls, kids: Sequence[GroupExpr]) -> GroupExpr:
        return cls(kids)


class _Flattening(_Parts):
    """Parts whose normal form splices in the parts of nested nodes of the same
    variant, drops Trivial parts where the trivial group is the unit, and lets
    a single remaining part stand for the whole."""

    _trivial_is_unit = True

    def normal_parts(self) -> list[GroupExpr]:
        # the parts below the whole run of same-variant nodes under this one,
        # left to right, so a run is flattened in one pass however deep it is
        parts: list[GroupExpr] = []
        stack: list[GroupExpr] = [self]
        while stack:
            node = stack.pop()
            if type(node) is type(self):
                stack.extend(reversed(node.children()))
            else:
                parts.append(node)
        return parts

    def normalized(self, kids: list[GroupExpr]) -> GroupExpr:
        flat: list[GroupExpr] = []
        for k in kids:
            if type(k) is type(self):
                flat.extend(k.children())
            elif not (self._trivial_is_unit and isinstance(k, Trivial)):
                flat.append(k)
        if len(flat) == 1:
            return flat[0]
        return self.rebuild(flat) if flat else Trivial()


@dataclass(frozen=True)
class Trivial(GroupExpr):
    def frame(self) -> tuple[str, str]:
        return "Trivial", ""

    def infiniteness(self, parts: list[InfinitenessStatus]) -> InfinitenessStatus:
        return InfinitenessStatus.FINITE


@dataclass(frozen=True)
class Finite(GroupExpr):
    order: int | None = None

    def __post_init__(self) -> None:
        if self.order is not None and self.order < 1:
            raise ValueError(f"finite group order must be positive, got {self.order}")

    def frame(self) -> tuple[str, str]:
        return ("Finite" if self.order is None else f"Finite({self.order})"), ""

    @classmethod
    def read(cls, sc: _Scanner) -> tuple:
        return sc.args(sc.integer) if sc.peek() == "(" else ()

    def infiniteness(self, parts: list[InfinitenessStatus]) -> InfinitenessStatus:
        return InfinitenessStatus.FINITE


@dataclass(frozen=True)
class FreeAbelian(GroupExpr):
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"negative rank {self.rank}")

    def frame(self) -> tuple[str, str]:
        return f"FreeAbelian({self.rank})", ""

    @classmethod
    def read(cls, sc: _Scanner) -> tuple:
        return sc.args(sc.integer)

    def infiniteness(self, parts: list[InfinitenessStatus]) -> InfinitenessStatus:
        return InfinitenessStatus.INFINITE if self.rank >= 1 else InfinitenessStatus.FINITE


@dataclass(frozen=True)
class SurfaceGroup(GroupExpr):
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in SURFACE_KINDS:
            raise ValueError(f"surface kind must be one of {SURFACE_KINDS}, got {self.kind!r}")

    def frame(self) -> tuple[str, str]:
        return f"SurfaceGroup({self.kind})", ""

    @classmethod
    def read(cls, sc: _Scanner) -> tuple:
        return sc.args(sc.ident)

    def infiniteness(self, parts: list[InfinitenessStatus]) -> InfinitenessStatus:
        if self.kind == "spherical":
            return InfinitenessStatus.FINITE
        return InfinitenessStatus.INFINITE


@dataclass(frozen=True)
class Lattice(GroupExpr):
    geometry: str
    dim: int
    cocompact: bool

    def __post_init__(self) -> None:
        if not self.geometry or not set(self.geometry) <= _NAME_CHARS:
            raise ValueError(f"bad geometry identifier {self.geometry!r}")
        if self.dim < 1:
            raise ValueError(f"bad geometry dimension {self.dim}")

    def frame(self) -> tuple[str, str]:
        cc = "cocompact" if self.cocompact else "cusped"
        return f"Lattice({self.geometry},{self.dim},{cc})", ""

    @classmethod
    def read(cls, sc: _Scanner) -> tuple:
        geometry, dim, cc = sc.args(sc.ident, sc.integer, sc.ident)
        if cc not in ("cocompact", "cusped"):
            raise sc.error(f"expected cocompact or cusped, found {cc!r}")
        return geometry, dim, cc == "cocompact"

    def infiniteness(self, parts: list[InfinitenessStatus]) -> InfinitenessStatus:
        try:
            compact = lookup_geometry(self.geometry, self.dim).compact_model
        except UnknownGeometryError:
            return InfinitenessStatus.UNDETERMINED
        return InfinitenessStatus.FINITE if compact else InfinitenessStatus.INFINITE


def _infinite_if_a_part_is(self, parts: list[InfinitenessStatus]) -> InfinitenessStatus:
    if InfinitenessStatus.INFINITE in parts:
        return InfinitenessStatus.INFINITE
    return InfinitenessStatus.UNDETERMINED


@dataclass(frozen=True)
class Product(_Flattening):
    factors: tuple[GroupExpr, ...]

    infiniteness = _infinite_if_a_part_is


@dataclass(frozen=True)
class FreeProduct(_Flattening):
    factors: tuple[GroupExpr, ...]

    infiniteness = _infinite_if_a_part_is


@dataclass(frozen=True)
class Amalgam(_Composite):
    left: GroupExpr
    right: GroupExpr
    edge: GroupExpr

    infiniteness = _infinite_if_a_part_is

    def children(self) -> tuple[GroupExpr, ...]:
        return (self.left, self.right, self.edge)


@dataclass(frozen=True)
class HNN(_Composite):
    base: GroupExpr
    edge: GroupExpr

    def children(self) -> tuple[GroupExpr, ...]:
        return (self.base, self.edge)


@dataclass(frozen=True)
class Extension(_Composite):
    kernel: GroupExpr
    quotient: GroupExpr

    infiniteness = _infinite_if_a_part_is

    def children(self) -> tuple[GroupExpr, ...]:
        return (self.kernel, self.quotient)


@dataclass(frozen=True)
class Union(_Flattening):
    parts: tuple[GroupExpr, ...]

    _trivial_is_unit = False


@dataclass(frozen=True)
class ActsOnCover(_Composite):
    """A group acting properly and isometrically on the universal cover of a
    space whose fundamental group is ``space``."""

    space: GroupExpr

    def children(self) -> tuple[GroupExpr, ...]:
        return (self.space,)


@dataclass(frozen=True)
class ProperActionOn(GroupExpr):
    """A group acting properly and isometrically on a proper metric space
    whose asymptotic dimension is already bounded."""

    space_bound: DimBound
    label: str

    def frame(self) -> tuple[str, str]:
        return f'ProperActionOn({self.space_bound},"{_escape(self.label)}")', ""

    @classmethod
    def read(cls, sc: _Scanner) -> tuple:
        return sc.args(sc.bound, sc.string)


@dataclass(frozen=True)
class HyperbolicGroup(GroupExpr):
    witness_bound: DimBound | None = None

    def frame(self) -> tuple[str, str]:
        if self.witness_bound is None:
            return "HyperbolicGroup", ""
        return f"HyperbolicGroup({self.witness_bound})", ""

    @classmethod
    def read(cls, sc: _Scanner) -> tuple:
        return sc.args(sc.bound) if sc.peek() == "(" else ()


@dataclass(frozen=True)
class RelHyperbolic(_Parts):
    peripherals: tuple[GroupExpr, ...]
    ambient_bound: DimBound | None = None

    def frame(self) -> tuple[str, str]:
        if self.ambient_bound is None:
            return "RelHyperbolic(", ")"
        return "RelHyperbolic(", f",ambient={self.ambient_bound})"

    @classmethod
    def rebuild(cls, kids: Sequence[GroupExpr], ambient_bound=None) -> GroupExpr:
        return cls(kids, ambient_bound)

    def normalized(self, kids: list[GroupExpr]) -> GroupExpr:
        return self.rebuild(kids, self.ambient_bound)


_VARIANTS: dict[str, type[GroupExpr]] = {cls.__name__: cls for cls in (
    Trivial, Finite, FreeAbelian, SurfaceGroup, Lattice, Product, FreeProduct, Amalgam,
    HNN, Extension, Union, ActsOnCover, ProperActionOn, HyperbolicGroup, RelHyperbolic,
)}


def postorder(
    expr: GroupExpr, seen: Container[int] = (), parts=methodcaller("children")
) -> Iterator[GroupExpr]:
    """Yield the nodes of ``expr`` children first, left to right, without recursion.

    Every occurrence of a shared subexpression is yielded, so the walk follows
    tree positions.  Nodes whose ``id`` is in ``seen`` are neither entered nor
    yielded: a caller that records each yielded node there visits each
    distinct node once.  ``parts`` gives the subexpressions to walk into.
    Raises TypeError on anything that is not a GroupExpr.
    """
    stack: list[tuple[GroupExpr, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
        elif id(node) not in seen:
            if not isinstance(node, GroupExpr):
                raise TypeError(f"not a GroupExpr: {node!r}")
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(parts(node)))


def is_infinite(
    expr: GroupExpr, memo: dict[int, InfinitenessStatus] | None = None
) -> InfinitenessStatus:
    """Conservative structural infiniteness test.

    Only patterns that force the answer are decided; everything else is
    UNDETERMINED, which downstream suppresses the "infinite groups have
    asymptotic dimension at least 1" lower bound.  In particular HNN
    extensions, subspace unions and the evidence leaves stay undetermined
    even when a sharper eye would settle them.

    ``memo`` maps ``id(node)`` to a status already computed.  A caller that
    asks about many subexpressions of one expression passes the same dict
    to every call, and keeps the expression alive while it does, so each
    node is decided once.
    """
    memo = {} if memo is None else memo
    for node in postorder(expr, memo):
        memo[id(node)] = node.infiniteness([memo[id(p)] for p in node.children()])
    return memo[id(expr)]


def normalize(expr: GroupExpr) -> GroupExpr:
    """Flatten nested Product/FreeProduct/Union layers, drop Trivial factors
    from the two product kinds, and collapse single-element wrappers.

    Idempotent, and bound-preserving under the rules engine.  Each distinct
    node is normalized once, so shared subexpressions stay shared, and a run
    of nested same-variant layers costs time linear in its size.
    """
    memo: dict[int, GroupExpr] = {}
    for node in postorder(expr, memo, methodcaller("normal_parts")):
        memo[id(node)] = node.normalized([memo[id(k)] for k in node.normal_parts()])
    return memo[id(expr)]


# ---------------------------------------------------------------------------
# Canonical text form


_ESCAPES = {"\\": "\\\\", '"': '\\"', "\t": "\\t", "\n": "\\n"}
_UNESCAPES = {v[1]: k for k, v in _ESCAPES.items()}


def _escape(label: str) -> str:
    return label.translate(str.maketrans(_ESCAPES))


def to_canonical(expr: GroupExpr) -> str:
    """Serialize to the canonical prefix form. Lossless: parse_canonical inverts it.

    Writes the text token by token from an explicit stack, so the cost is
    linear in the length of the result at any nesting depth.
    """
    out: list[str] = []
    stack: list[GroupExpr | str] = [expr]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if not isinstance(item, GroupExpr):
            raise TypeError(f"not a GroupExpr: {item!r}")
        head, tail = item.frame()
        out.append(head)
        stack.append(tail)
        for i, kid in enumerate(reversed(item.children())):
            stack.extend((",", kid) if i else (kid,))
    return "".join(out)


class CanonicalFormError(ValueError):
    """Raised when canonical-form text fails to parse."""


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, offset: int | None = None) -> CanonicalFormError:
        return CanonicalFormError(f"offset {self.pos if offset is None else offset}: {message}")

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}, found {self.peek()!r}")
        self.pos += 1

    def ident(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _NAME_CHARS:
            self.pos += 1
        if self.pos == start:
            raise self.error(f"expected a name, found {self.peek()!r}")
        return self.text[start:self.pos]

    def integer(self) -> int:
        word = self.ident()
        if not word.isdigit():
            raise self.error(f"expected an integer, found {word!r}")
        try:
            return int(word)
        except ValueError as exc:  # more digits than int() converts
            raise self.error(str(exc)) from exc

    def string(self) -> str:
        self.expect('"')
        out = []
        while self.peek() != '"':
            ch = self.peek()
            if ch == "\\":
                self.pos += 1
                ch = _UNESCAPES.get(self.peek())
                if ch is None:
                    raise self.error(f"bad escape \\{self.peek()}")
            elif not ch:
                raise self.error("unterminated string")
            out.append(ch)
            self.pos += 1
        self.pos += 1
        return "".join(out)

    def bound(self) -> DimBound:
        lower = self.integer()
        self.expect(".")
        self.expect(".")
        if self.peek() == "?":
            self.pos += 1
            token = f"{lower}..?"
        else:
            token = f"{lower}..{self.ident()}"
        try:
            return DimBound.parse(token)
        except (InconsistentBoundError, ValueError) as exc:
            raise self.error(str(exc)) from exc

    def args(self, *readers: Callable[[], object]) -> tuple:
        """``(a,b,...)``, each item read by the reader in its place."""
        values = []
        for i, read in enumerate(readers):
            self.expect("," if i else "(")
            values.append(read())
        self.expect(")")
        return tuple(values)

    def made(self, offset: int, make: Callable[..., GroupExpr], *args: object) -> GroupExpr:
        """``make(*args)``, with a constructor's ValueError reported at ``offset``."""
        try:
            return make(*args)
        except ValueError as exc:
            raise self.error(str(exc), offset) from exc


def parse_canonical(text: str) -> GroupExpr:
    """Parse the canonical prefix form back into a GroupExpr.

    Reads with an explicit stack of open composites, so nesting depth is
    limited by memory, not by the interpreter's stack.
    """
    sc = _Scanner(text)
    # each open composite: its variant, the offset of its head, its children so far
    open_: list[tuple[type[_Composite], int, list[GroupExpr]]] = []
    while True:
        start = sc.pos
        head = sc.ident()
        cls = _VARIANTS.get(head)
        if cls is None:
            raise sc.error(f"unknown expression head {head!r}", start)
        if issubclass(cls, _Composite):
            sc.expect("(")
            open_.append((cls, start, []))
            continue
        node = sc.made(start, cls, *cls.read(sc))
        while open_:
            cls, start, kids = open_[-1]
            kids.append(node)
            extra: tuple[DimBound, ...] = ()
            if sc.peek() == ",":
                sc.pos += 1
                if not (cls is RelHyperbolic and text.startswith("ambient=", sc.pos)):
                    break
                sc.pos += len("ambient=")
                extra = (sc.bound(),)
            sc.expect(")")
            open_.pop()
            node = sc.made(start, cls.rebuild, kids, *extra)
        if not open_:
            if sc.pos != len(text):
                raise sc.error("trailing input after expression")
            return node
