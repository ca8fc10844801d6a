"""Group expressions.

A ``GroupExpr`` is a finite tree describing how a finitely generated group
is built: base groups (trivial, finite, free abelian, surface groups,
lattices in model geometries) combined by products, free products,
amalgams, HNN extensions, group extensions and subspace unions, plus three
"evidence" leaves that carry a bound rather than structure (a proper action
on a space of known asymptotic dimension, hyperbolicity, relative
hyperbolicity).

The module also provides the canonical text form used in proof traces and
fixtures (lossless round-trip via ``to_canonical``/``parse_canonical``),
structural normalization, and the conservative three-valued infiniteness
predicate.  These walk expressions with an explicit stack (``postorder``),
so nesting depth is limited by memory, not by the interpreter's stack.
"""

from __future__ import annotations

import enum
from collections.abc import Container, Iterator
from dataclasses import dataclass

from .bounds import DimBound, InconsistentBoundError
from .geometries import UnknownGeometryError, lookup_geometry

SURFACE_KINDS = ("spherical", "flat", "hyperbolic")

_NAME_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_~")


class GroupExpr:
    """Base class for all expression variants. Variants are frozen dataclasses."""

    __slots__ = ()

    def children(self) -> tuple[GroupExpr, ...]:
        """Direct subexpressions, left to right; leaves have none."""
        return ()


@dataclass(frozen=True)
class Trivial(GroupExpr):
    pass


@dataclass(frozen=True)
class Finite(GroupExpr):
    order: int | None = None

    def __post_init__(self) -> None:
        if self.order is not None and self.order < 1:
            raise ValueError(f"finite group order must be positive, got {self.order}")


@dataclass(frozen=True)
class FreeAbelian(GroupExpr):
    rank: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"negative rank {self.rank}")


@dataclass(frozen=True)
class SurfaceGroup(GroupExpr):
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in SURFACE_KINDS:
            raise ValueError(f"surface kind must be one of {SURFACE_KINDS}, got {self.kind!r}")


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


def _as_tuple(expr: GroupExpr, name: str) -> None:
    object.__setattr__(expr, name, tuple(getattr(expr, name)))
    if not getattr(expr, name):
        raise ValueError(f"{type(expr).__name__}.{name} must be nonempty")


@dataclass(frozen=True)
class Product(GroupExpr):
    factors: tuple[GroupExpr, ...]

    def __post_init__(self) -> None:
        _as_tuple(self, "factors")

    def children(self) -> tuple[GroupExpr, ...]:
        return self.factors


@dataclass(frozen=True)
class FreeProduct(GroupExpr):
    factors: tuple[GroupExpr, ...]

    def __post_init__(self) -> None:
        _as_tuple(self, "factors")

    def children(self) -> tuple[GroupExpr, ...]:
        return self.factors


@dataclass(frozen=True)
class Amalgam(GroupExpr):
    left: GroupExpr
    right: GroupExpr
    edge: GroupExpr

    def children(self) -> tuple[GroupExpr, ...]:
        return (self.left, self.right, self.edge)


@dataclass(frozen=True)
class HNN(GroupExpr):
    base: GroupExpr
    edge: GroupExpr

    def children(self) -> tuple[GroupExpr, ...]:
        return (self.base, self.edge)


@dataclass(frozen=True)
class Extension(GroupExpr):
    kernel: GroupExpr
    quotient: GroupExpr

    def children(self) -> tuple[GroupExpr, ...]:
        return (self.kernel, self.quotient)


@dataclass(frozen=True)
class Union(GroupExpr):
    parts: tuple[GroupExpr, ...]

    def __post_init__(self) -> None:
        _as_tuple(self, "parts")

    def children(self) -> tuple[GroupExpr, ...]:
        return self.parts


@dataclass(frozen=True)
class ProperActionOn(GroupExpr):
    """A group acting properly and isometrically on a proper metric space
    whose asymptotic dimension is already bounded."""

    space_bound: DimBound
    label: str


@dataclass(frozen=True)
class HyperbolicGroup(GroupExpr):
    witness_bound: DimBound | None = None


@dataclass(frozen=True)
class RelHyperbolic(GroupExpr):
    peripherals: tuple[GroupExpr, ...]
    ambient_bound: DimBound | None = None

    def __post_init__(self) -> None:
        _as_tuple(self, "peripherals")

    def children(self) -> tuple[GroupExpr, ...]:
        return self.peripherals


def postorder(expr: GroupExpr, seen: Container[int] = ()) -> Iterator[GroupExpr]:
    """Yield the nodes of ``expr`` children first, left to right, without recursion.

    Every occurrence of a shared subexpression is yielded, so the walk follows
    tree positions.  Nodes whose ``id`` is in ``seen`` are neither entered nor
    yielded: a caller that records each yielded node there visits each
    distinct node once.  Raises TypeError on anything that is not a GroupExpr.
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
            stack.extend((child, False) for child in reversed(node.children()))


class InfinitenessStatus(enum.Enum):
    FINITE = "Finite"
    INFINITE = "Infinite"
    UNDETERMINED = "Undetermined"


def _own_infiniteness(expr: GroupExpr) -> InfinitenessStatus:
    # What a node decides without looking at its parts.
    if isinstance(expr, (Trivial, Finite)):
        return InfinitenessStatus.FINITE
    if isinstance(expr, FreeAbelian):
        return InfinitenessStatus.INFINITE if expr.rank >= 1 else InfinitenessStatus.FINITE
    if isinstance(expr, SurfaceGroup):
        if expr.kind == "spherical":
            return InfinitenessStatus.FINITE
        return InfinitenessStatus.INFINITE
    if isinstance(expr, Lattice):
        try:
            fact = lookup_geometry(expr.geometry, expr.dim)
        except UnknownGeometryError:
            return InfinitenessStatus.UNDETERMINED
        if fact.compact_model:
            return InfinitenessStatus.FINITE
        return InfinitenessStatus.INFINITE
    return InfinitenessStatus.UNDETERMINED


# Composites that are infinite as soon as one part is.
_INFINITE_IF_A_PART_IS = (Product, FreeProduct, Amalgam, Extension)


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
        if isinstance(node, _INFINITE_IF_A_PART_IS):
            infinite = any(memo[id(p)] is InfinitenessStatus.INFINITE for p in node.children())
            memo[id(node)] = (
                InfinitenessStatus.INFINITE if infinite else InfinitenessStatus.UNDETERMINED
            )
        else:
            memo[id(node)] = _own_infiniteness(node)
    return memo[id(expr)]


def _normalized(expr: GroupExpr, kids: list[GroupExpr]) -> GroupExpr:
    # One node of normalize, given its already normalized children.
    if isinstance(expr, (Product, FreeProduct)):
        cls = type(expr)
        flat: list[GroupExpr] = []
        for f in kids:
            if isinstance(f, cls):
                flat.extend(f.factors)
            elif not isinstance(f, Trivial):
                flat.append(f)
        if not flat:
            return Trivial()
        if len(flat) == 1:
            return flat[0]
        return cls(tuple(flat))
    if isinstance(expr, Union):
        flat = []
        for p in kids:
            if isinstance(p, Union):
                flat.extend(p.parts)
            else:
                flat.append(p)
        if len(flat) == 1:
            return flat[0]
        return Union(tuple(flat))
    if isinstance(expr, (Amalgam, HNN, Extension)):
        return type(expr)(*kids)
    if isinstance(expr, RelHyperbolic):
        return RelHyperbolic(tuple(kids), expr.ambient_bound)
    return expr


def normalize(expr: GroupExpr) -> GroupExpr:
    """Flatten nested Product/FreeProduct/Union layers, drop Trivial factors
    from the two product kinds, and collapse single-element wrappers.

    Idempotent, and bound-preserving under the rules engine.  Each distinct
    node is normalized once, so shared subexpressions stay shared.
    """
    memo: dict[int, GroupExpr] = {}
    for node in postorder(expr, memo):
        memo[id(node)] = _normalized(node, [memo[id(k)] for k in node.children()])
    return memo[id(expr)]


# ---------------------------------------------------------------------------
# Canonical text form


def _escape(label: str) -> str:
    out = []
    for ch in label:
        if ch == "\\":
            out.append("\\\\")
        elif ch == '"':
            out.append('\\"')
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\n":
            out.append("\\n")
        else:
            out.append(ch)
    return "".join(out)


def canonical_frame(expr: GroupExpr) -> tuple[str, str]:
    """The text around a node's children in the canonical form.

    The canonical form of ``expr`` is ``head + ",".join(children's forms) +
    tail``; a leaf has no children, so its form is ``head + tail``.
    """
    if isinstance(expr, (Product, FreeProduct, Amalgam, HNN, Extension, Union)):
        return type(expr).__name__ + "(", ")"
    if isinstance(expr, Trivial):
        return "Trivial", ""
    if isinstance(expr, Finite):
        return ("Finite" if expr.order is None else f"Finite({expr.order})"), ""
    if isinstance(expr, FreeAbelian):
        return f"FreeAbelian({expr.rank})", ""
    if isinstance(expr, SurfaceGroup):
        return f"SurfaceGroup({expr.kind})", ""
    if isinstance(expr, Lattice):
        cc = "cocompact" if expr.cocompact else "cusped"
        return f"Lattice({expr.geometry},{expr.dim},{cc})", ""
    if isinstance(expr, ProperActionOn):
        return f'ProperActionOn({expr.space_bound},"{_escape(expr.label)}")', ""
    if isinstance(expr, HyperbolicGroup):
        if expr.witness_bound is None:
            return "HyperbolicGroup", ""
        return f"HyperbolicGroup({expr.witness_bound})", ""
    if isinstance(expr, RelHyperbolic):
        if expr.ambient_bound is None:
            return "RelHyperbolic(", ")"
        return "RelHyperbolic(", f",ambient={expr.ambient_bound})"
    raise TypeError(f"not a GroupExpr: {expr!r}")


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
        head, tail = canonical_frame(item)
        out.append(head)
        stack.append(tail)
        kids = item.children()
        for i in range(len(kids) - 1, -1, -1):
            stack.append(kids[i])
            if i:
                stack.append(",")
    return "".join(out)


class CanonicalFormError(ValueError):
    """Raised when canonical-form text fails to parse."""


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> CanonicalFormError:
        return CanonicalFormError(f"offset {self.pos}: {message}")

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
        return int(word)

    def string(self) -> str:
        self.expect('"')
        out = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated string")
            ch = self.text[self.pos]
            self.pos += 1
            if ch == '"':
                return "".join(out)
            if ch == "\\":
                if self.pos >= len(self.text):
                    raise self.error("dangling escape")
                esc = self.text[self.pos]
                self.pos += 1
                try:
                    out.append({"\\": "\\", '"': '"', "t": "\t", "n": "\n"}[esc])
                except KeyError:
                    raise self.error(f"bad escape \\{esc}") from None
            else:
                out.append(ch)

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


def parse_canonical(text: str) -> GroupExpr:
    """Parse the canonical prefix form back into a GroupExpr."""
    sc = _Scanner(text)
    expr = _parse_expr(sc)
    if sc.pos != len(text):
        raise sc.error("trailing input after expression")
    return expr


def _parse_list(sc: _Scanner) -> list[GroupExpr]:
    sc.expect("(")
    items = [_parse_expr(sc)]
    while sc.peek() == ",":
        sc.pos += 1
        items.append(_parse_expr(sc))
    sc.expect(")")
    return items


def _parse_expr(sc: _Scanner) -> GroupExpr:
    head = sc.ident()
    if head == "Trivial":
        return Trivial()
    if head == "Finite":
        if sc.peek() == "(":
            sc.pos += 1
            order = sc.integer()
            sc.expect(")")
            return Finite(order)
        return Finite()
    if head == "FreeAbelian":
        sc.expect("(")
        rank = sc.integer()
        sc.expect(")")
        return FreeAbelian(rank)
    if head == "SurfaceGroup":
        sc.expect("(")
        kind = sc.ident()
        sc.expect(")")
        if kind not in SURFACE_KINDS:
            raise sc.error(f"bad surface kind {kind!r}")
        return SurfaceGroup(kind)
    if head == "Lattice":
        sc.expect("(")
        geometry = sc.ident()
        sc.expect(",")
        dim = sc.integer()
        sc.expect(",")
        cc = sc.ident()
        sc.expect(")")
        if cc not in ("cocompact", "cusped"):
            raise sc.error(f"expected cocompact or cusped, found {cc!r}")
        return Lattice(geometry, dim, cc == "cocompact")
    if head in ("Product", "FreeProduct", "Union"):
        items = tuple(_parse_list(sc))
        return {"Product": Product, "FreeProduct": FreeProduct, "Union": Union}[head](items)
    if head == "Amalgam":
        items = _parse_list(sc)
        if len(items) != 3:
            raise sc.error(f"Amalgam takes 3 arguments, got {len(items)}")
        return Amalgam(*items)
    if head == "HNN":
        items = _parse_list(sc)
        if len(items) != 2:
            raise sc.error(f"HNN takes 2 arguments, got {len(items)}")
        return HNN(*items)
    if head == "Extension":
        items = _parse_list(sc)
        if len(items) != 2:
            raise sc.error(f"Extension takes 2 arguments, got {len(items)}")
        return Extension(*items)
    if head == "ProperActionOn":
        sc.expect("(")
        space = sc.bound()
        sc.expect(",")
        label = sc.string()
        sc.expect(")")
        return ProperActionOn(space, label)
    if head == "HyperbolicGroup":
        if sc.peek() == "(":
            sc.pos += 1
            witness = sc.bound()
            sc.expect(")")
            return HyperbolicGroup(witness)
        return HyperbolicGroup()
    if head == "RelHyperbolic":
        sc.expect("(")
        peripherals: list[GroupExpr] = []
        ambient: DimBound | None = None
        while True:
            mark = sc.pos
            word_ok = sc.peek() in _NAME_CHARS
            if word_ok:
                word = sc.ident()
                if word == "ambient" and sc.peek() == "=":
                    sc.pos += 1
                    ambient = sc.bound()
                    break
                sc.pos = mark
            peripherals.append(_parse_expr(sc))
            if sc.peek() == ",":
                sc.pos += 1
                continue
            break
        sc.expect(")")
        if not peripherals:
            raise sc.error("RelHyperbolic needs at least one peripheral")
        return RelHyperbolic(tuple(peripherals), ambient)
    raise sc.error(f"unknown expression head {head!r}")
